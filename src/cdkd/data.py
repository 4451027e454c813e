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

import zlib
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .seeds import derive

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

    def __post_init__(self):
        if self.images.ndim != 4 or len(self.labels) != len(self.images):
            raise ValueError("images must be [N,c,h,w] aligned with labels")
        if len(self.images) < 1:
            raise ValueError("dataset must not be empty")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError(f"labels out of range [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.images)

    def checksum(self) -> int:
        """CRC-32 over the image bytes, then the label bytes, read in place."""
        return zlib.crc32(np.ascontiguousarray(self.labels, np.int64),
                          zlib.crc32(np.ascontiguousarray(self.images, np.float32)))


@dataclass
class AugmentConfig:
    channel_means: np.ndarray
    channel_stds: np.ndarray
    pad: int = 0
    random_crop: bool = True      # False only sets pad to 0: pad > 0 is the crop
    hflip_prob: float = 0.0

    def __post_init__(self):
        self.channel_means = np.asarray(self.channel_means, dtype=np.float32)
        self.channel_stds = np.asarray(self.channel_stds, dtype=np.float32)
        if not np.all(self.channel_stds > 0):
            raise ValueError("channel stds must be strictly positive")
        if self.pad < 0:
            raise ValueError(f"pad must be non-negative, got {self.pad}")
        self.pad = self.pad if self.random_crop else 0
        if not (0.0 <= self.hflip_prob <= 1.0):
            raise ValueError(f"hflip_prob must be in [0, 1], got {self.hflip_prob}")

    @property
    def randomizes(self) -> bool:
        """Whether augment_batch draws random crops or flips; when it does
        not, it only normalizes, and a sample comes out the same every epoch."""
        return self.pad > 0 or self.hflip_prob > 0


def load_cifar_binary(path, variant: str) -> Dataset:
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
    images = pixels.reshape(-1, *_CIFAR_SHAPE).astype(np.float32)
    images /= 255.0     # in place: one float32 copy of the split, not two
    return Dataset(images=images, labels=labels, class_count=class_count)


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
    chans, axis = np.arange(SYNTHETIC_CHANNELS)[:, None, None], np.arange(image_size)
    for c in range(classes):
        shifts = rng.integers(-SYNTHETIC_SHIFT, SYNTHETIC_SHIFT + 1, size=(per_class, 2))
        noise = rng.normal(0.0, SYNTHETIC_NOISE,
                           size=(per_class, SYNTHETIC_CHANNELS, image_size, image_size))
        # every sample's np.roll at once: pixel (y, x) <- ((y - dy) % size, (x - dx) % size)
        ys = (axis - shifts[:, :1]) % image_size
        xs = (axis - shifts[:, 1:]) % image_size
        noise += templates[c][chans, ys[:, None, :, None], xs[:, None, None, :]]
        images[c * per_class:(c + 1) * per_class] = np.clip(noise, 0.0, 1.0, out=noise)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    return Dataset(images=images, labels=labels, class_count=classes)


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
    if cfg.pad > 0:
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


def iterate_batches(ds: Dataset, batch_size: int, order_seed: Optional[int] = None
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(indices, images, labels) batches in the permutation that ``order_seed``
    draws, or in row order when it is None; only the last batch may be short."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(ds)
    order = (np.arange(n) if order_seed is None
             else np.random.default_rng(order_seed).permutation(n))
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield idx, ds.images[idx], ds.labels[idx]
