"""Dataset ingestion, synthetic data generation, augmentation, and batching.

CIFAR binary records are parsed bit-exactly from the documented layout:
CIFAR-10 records are 3073 bytes (label + 3072 channel-major pixels),
CIFAR-100 records are 3074 (coarse label, fine label, pixels); the coarse
byte is read and discarded. Pixels decode to float32 in [0, 1].

The synthetic generator builds class-conditional images from smooth
per-class templates plus per-sample shift and noise, easy enough for a
small CNN to exceed 90% accuracy yet non-trivial under limited capacity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple

import numpy as np

from .seeds import derive, derive_epoch

CIFAR10_RECORD = 3073
CIFAR100_RECORD = 3074
_CIFAR_SHAPE = (3, 32, 32)

SYNTHETIC_CHANNELS = 3
SYNTHETIC_SHIFT = 2
SYNTHETIC_NOISE = 0.65


class DataFormatError(ValueError):
    """Malformed dataset file (truncation, bad label byte)."""


@dataclass
class Dataset:
    images: np.ndarray          # float32 [N, c, h, w] in [0, 1]
    labels: np.ndarray          # int64 [N]
    class_count: int
    split: str                  # "train" or "val"

    def __post_init__(self):
        if self.images.ndim != 4 or len(self.labels) != len(self.images):
            raise ValueError("images must be [N,c,h,w] aligned with labels")
        if len(self.images) < 1:
            raise ValueError("dataset must not be empty")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError(f"labels out of range [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.images)


@dataclass
class AugmentConfig:
    channel_means: np.ndarray
    channel_stds: np.ndarray
    pad: int = 0
    random_crop: bool = False
    hflip_prob: float = 0.0

    def __post_init__(self):
        self.channel_means = np.asarray(self.channel_means, dtype=np.float32)
        self.channel_stds = np.asarray(self.channel_stds, dtype=np.float32)
        if np.any(self.channel_stds <= 0):
            raise ValueError("channel stds must be strictly positive")
        if self.pad < 0:
            raise ValueError(f"pad must be non-negative, got {self.pad}")
        if not (0.0 <= self.hflip_prob <= 1.0):
            raise ValueError(f"hflip_prob must be in [0, 1], got {self.hflip_prob}")


@dataclass
class BatchPlan:
    batch_size: int
    shuffle_seed: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def load_cifar_binary(path, variant: str, split: str = "train") -> Dataset:
    """Decode a CIFAR-10 or CIFAR-100 ('cifar100-fine') binary file."""
    if variant not in ("cifar10", "cifar100-fine"):
        raise ValueError(f"unknown variant {variant!r}")
    raw = np.fromfile(str(path), dtype=np.uint8)
    record = CIFAR10_RECORD if variant == "cifar10" else CIFAR100_RECORD
    if raw.size == 0 or raw.size % record:
        raise DataFormatError(
            f"{path}: length {raw.size} is not a multiple of the {record}-byte record")
    recs = raw.reshape(-1, record)
    if variant == "cifar10":
        labels = recs[:, 0].astype(np.int64)
        pixels = recs[:, 1:]
        class_count = 10
    else:
        # byte 0 is the coarse label: read and discarded
        labels = recs[:, 1].astype(np.int64)
        pixels = recs[:, 2:]
        class_count = 100
    if labels.max() >= class_count:
        raise DataFormatError(
            f"{path}: label byte {labels.max()} out of range for {variant}")
    images = pixels.reshape(-1, *_CIFAR_SHAPE).astype(np.float32) / 255.0
    return Dataset(images=images, labels=labels, class_count=class_count, split=split)


def write_cifar10(path, pixels_u8: np.ndarray, labels) -> None:
    """Round-trip writer for CIFAR-10 layout records (testing and export)."""
    labels = np.asarray(labels, dtype=np.uint8)
    if pixels_u8.shape[1:] != _CIFAR_SHAPE or pixels_u8.dtype != np.uint8:
        raise ValueError(f"expected uint8 [N,3,32,32], got {pixels_u8.shape} {pixels_u8.dtype}")
    recs = np.concatenate(
        [labels[:, None], pixels_u8.reshape(len(pixels_u8), -1)], axis=1)
    recs.astype(np.uint8).tofile(str(path))


def synthetic_templates(classes: int, image_size: int, seed: int) -> np.ndarray:
    """The generator's class templates (the nearest-template test oracle uses
    them too): smooth low-frequency 4x4 bases upscaled then box-blurred, so
    small spatial shifts keep samples close to their own template."""
    rng = np.random.default_rng(derive(seed, "templates"))
    base = rng.uniform(0.0, 1.0, size=(classes, SYNTHETIC_CHANNELS, 4, 4))
    reps = int(np.ceil(image_size / 4))
    up = np.kron(base, np.ones((1, 1, reps, reps)))[:, :, :image_size, :image_size]
    blurred = np.copy(up)
    for shift in (-1, 1):
        blurred += np.roll(up, shift, axis=2) + np.roll(up, shift, axis=3)
    return (blurred / 5.0).astype(np.float32)


def make_synthetic(classes: int, per_class: int, image_size: int, seed: int,
                   split: str = "train") -> Dataset:
    """Class-conditional synthetic dataset, deterministic under seed.

    Templates depend only on the seed; the per-sample noise stream also
    depends on the split, so train and val share classes but not samples.
    """
    if classes < 2:
        raise ValueError(f"need >= 2 classes, got {classes}")
    templates = synthetic_templates(classes, image_size, seed)
    rng = np.random.default_rng(derive(seed, f"samples-{split}"))
    n = classes * per_class
    images = np.empty((n, SYNTHETIC_CHANNELS, image_size, image_size), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    idx = 0
    for c in range(classes):
        shifts = rng.integers(-SYNTHETIC_SHIFT, SYNTHETIC_SHIFT + 1, size=(per_class, 2))
        noise = rng.normal(0.0, SYNTHETIC_NOISE,
                           size=(per_class, SYNTHETIC_CHANNELS, image_size, image_size))
        for i in range(per_class):
            img = np.roll(templates[c], tuple(shifts[i]), axis=(1, 2))
            images[idx] = np.clip(img + noise[i], 0.0, 1.0)
            labels[idx] = c
            idx += 1
    return Dataset(images=images, labels=labels, class_count=classes, split=split)


def channel_stats(ds: Dataset) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std of a (training) split, std floored at 1e-6."""
    means = ds.images.mean(axis=(0, 2, 3))
    stds = np.maximum(ds.images.std(axis=(0, 2, 3)), 1e-6)
    return means.astype(np.float32), stds.astype(np.float32)


def normalize(batch: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    return ((batch - means[None, :, None, None]) / stds[None, :, None, None]).astype(np.float32)


def augment_batch(batch: np.ndarray, cfg: AugmentConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-sample pad+random-crop and horizontal flip, then normalization.

    Draw order is fixed (crop offsets, then flips) so a seeded generator
    replays the exact same batch. Output shape always equals input shape.
    """
    n, c, h, w = batch.shape
    out = batch
    if cfg.pad > 0 and cfg.random_crop:
        p = cfg.pad
        padded = np.pad(batch, ((0, 0), (0, 0), (p, p), (p, p)))
        offs = rng.integers(0, 2 * p + 1, size=(n, 2))
        out = np.empty_like(batch)
        for i in range(n):
            oy, ox = offs[i]
            out[i] = padded[i, :, oy:oy + h, ox:ox + w]
    if cfg.hflip_prob > 0:
        flips = rng.random(n) < cfg.hflip_prob
        out = np.where(flips[:, None, None, None], out[:, :, :, ::-1], out)
    return normalize(out, cfg.channel_means, cfg.channel_stds)


def iterate_batches(ds: Dataset, plan: BatchPlan, epoch: int,
                    shuffle: Optional[bool] = None) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Deterministic batches; order is a pure function of (shuffle_seed, epoch).

    Training splits shuffle by default, validation splits never do.
    """
    n = len(ds)
    if shuffle is None:
        shuffle = ds.split == "train"
    if shuffle:
        rng = np.random.default_rng(derive_epoch(plan.shuffle_seed, epoch))
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    for start in range(0, n, plan.batch_size):
        idx = order[start:start + plan.batch_size]
        yield ds.images[idx], ds.labels[idx]


def export_synthetic(ds: Dataset, path, meta: dict) -> None:
    """Write a synthetic dataset in the CIFAR-10 record layout plus a JSON
    sidecar {classes, per_class, image_size, seed} describing its provenance."""
    path = Path(path)
    n, c, h, w = ds.images.shape
    pixels = np.round(ds.images * 255.0).astype(np.uint8)
    recs = np.concatenate(
        [ds.labels.astype(np.uint8)[:, None], pixels.reshape(n, -1)], axis=1)
    recs.tofile(str(path))
    sidecar = {"classes": int(ds.class_count), "per_class": int(n // ds.class_count),
               "image_size": int(h), **meta}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, sort_keys=True))


def load_synthetic(path, split: str = "train") -> Dataset:
    """Read back an exported synthetic dataset using its sidecar dimensions."""
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    size = sidecar["image_size"]
    classes = sidecar["classes"]
    record = 1 + SYNTHETIC_CHANNELS * size * size
    raw = np.fromfile(str(path), dtype=np.uint8)
    if raw.size == 0 or raw.size % record:
        raise DataFormatError(
            f"{path}: length {raw.size} is not a multiple of the {record}-byte record")
    recs = raw.reshape(-1, record)
    labels = recs[:, 0].astype(np.int64)
    images = recs[:, 1:].reshape(-1, SYNTHETIC_CHANNELS, size, size).astype(np.float32) / 255.0
    return Dataset(images=images, labels=labels, class_count=classes, split=split)
