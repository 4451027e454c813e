"""Run configuration: the ``[section]`` / ``key = value`` grammar (see
kvtext) bound to the section dataclasses, strict validation, and two
bundled hyperparameter presets.

Each section's keys, types, defaults and required keys are its dataclass's
fields; the dataclass's own checks are the value rules. Unknown sections or
keys are rejected with file/line diagnostics, every value is type-checked on
parse, and the parsed snapshot re-serializes canonically for provenance
copies.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, get_type_hints

from .data import _CIFAR_SHAPE, Dataset, load_cifar_binary, make_synthetic
from .kvtext import emit_sections, format_value, parse_sections
from .losses import DistillConfig
from .models import NetworkSpec
from .optim import LrSchedule, SgdConfig


class ConfigError(ValueError):
    pass


@dataclass
class DataSection:
    source: str = "synthetic"
    path: Optional[str] = None
    val_path: Optional[str] = None
    classes: int = 8
    per_class_train: int = 200
    per_class_val: int = 100
    image_size: int = 16
    data_seed: int = 0            # dataset identity is independent of [run].seed
    batch_size: int = 128
    pad: int = 0                  # > 0: a random crop of the image padded by this much
    hflip_prob: float = 0.0

    def __post_init__(self):
        if self.source not in ("synthetic", "cifar10", "cifar100-fine"):
            raise ValueError(f"source must be synthetic/cifar10/cifar100-fine, "
                             f"got {self.source!r}")
        for key in ("path", "val_path"):
            if self.source != "synthetic" and not getattr(self, key):
                raise ValueError(f"source {self.source} requires '{key}'")
        synthetic = self.source == "synthetic"
        for key, rule, ok in (("classes", ">= 2", not synthetic or self.classes >= 2),
                              ("image_size", ">= 1", not synthetic or self.image_size >= 1),
                              ("batch_size", ">= 1", self.batch_size >= 1),
                              ("per_class_train", ">= 1", self.per_class_train >= 1),
                              ("per_class_val", ">= 1", self.per_class_val >= 1),
                              ("pad", ">= 0", self.pad >= 0),
                              ("hflip_prob", "in [0, 1]", 0.0 <= self.hflip_prob <= 1.0)):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)}")

    @property
    def num_classes(self) -> int:
        return {"synthetic": self.classes, "cifar10": 10, "cifar100-fine": 100}[self.source]


@dataclass
class RunSection:
    epochs: int
    seed: int
    out_dir: str = "runs/out"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class RunConfig:
    teacher: Optional[NetworkSpec]
    student: Optional[NetworkSpec]
    data: DataSection
    optim: SgdConfig
    schedule: LrSchedule
    distill: Optional[DistillConfig]    # n_decay resolved
    run: RunSection


# section -> the dataclass its keys fill, in canonical snapshot order
_SECTIONS = {"model.teacher": NetworkSpec, "model.student": NetworkSpec,
             "data": DataSection, "optim": SgdConfig, "schedule": LrSchedule,
             "distill": DistillConfig, "run": RunSection}
# config key -> field name, where they differ ("lambda" is a Python keyword)
_FIELD = {"lambda": "lam"}
_KEY = {f: k for k, f in _FIELD.items()}
# the NetworkSpec fields the data fixes, so no config key sets them
_FROM_DATA = ("num_classes", "input_channels")


def _keys(cls) -> Dict[str, object]:
    """key -> type of each field of ``cls`` that a config sets."""
    hints = get_type_hints(cls)
    return {_KEY.get(f.name, f.name): hints[f.name] for f in fields(cls)
            if f.name not in _FROM_DATA}


SCHEMA = {sec: _keys(cls) for sec, cls in _SECTIONS.items()}


def parse_kv_text(text: str, origin: str = "<config>") -> Dict[str, dict]:
    """Parse and type-check; returns {section: {key: typed value}}."""
    return parse_sections(text, origin, ConfigError, SCHEMA)


def _section(name: str, cls, kvs: Mapping[str, object]):
    """Build ``cls`` from the keys of section ``name`` that are its fields; a
    missing required key, a non-finite float, or a value the dataclass
    refuses, is a ConfigError naming the section."""
    args = {}
    for f in fields(cls):
        key = _KEY.get(f.name, f.name)
        if f.name in kvs:
            args[f.name] = value = kvs[f.name]
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"[{name}] {key} must be finite, got {value}")
        elif f.default is MISSING:
            raise ConfigError(f"[{name}] is missing required key '{key}'")
    try:
        return cls(**args)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def check_image_size(data: DataSection, spec: NetworkSpec, model: str, origin: str = "") -> None:
    """The image, synthetic or the decoder's 32x32 CIFAR, must halve exactly
    at each of ``spec``'s taps; the ConfigError names ``model``, where the
    spec comes from, after ``origin``."""
    step = 1 << spec.tap_count
    synthetic = data.source == "synthetic"
    size = data.image_size if synthetic else _CIFAR_SHAPE[-1]
    if size % step:
        got = size if synthetic else f"{size}x{size} {data.source} images"
        raise ConfigError(f"{origin}[data] image_size must be a positive multiple of "
                          f"{step} for {model}, got {got}")


def build_config(sections: Dict[str, dict]) -> RunConfig:
    """Assemble a validated RunConfig from parsed sections."""
    for required in ("data", "optim", "schedule", "run"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    secs = {name: {_FIELD.get(k, k): v for k, v in kvs.items()}
            for name, kvs in sections.items()}
    data = _section("data", DataSection, secs.pop("data"))
    for name in ("model.teacher", "model.student"):
        if name in secs:
            secs[name]["num_classes"] = data.num_classes
    built = {name: _section(name, _SECTIONS[name], kvs) for name, kvs in secs.items()}
    for name in ("model.teacher", "model.student"):
        if name in built:
            check_image_size(data, built[name], f"[{name}]")
    distill = built.get("distill")
    if distill is not None and distill.n_decay is None:
        milestones = built["schedule"].milestones
        distill = replace(distill, n_decay=milestones[0] if milestones else 30)
    return RunConfig(teacher=built.get("model.teacher"), student=built.get("model.student"),
                     data=data, optim=built["optim"], schedule=built["schedule"],
                     distill=distill, run=built["run"])


def merge_sections(base: Dict[str, dict], overlay: Dict[str, dict]) -> Dict[str, dict]:
    out = {k: dict(v) for k, v in base.items()}
    for sec, kvs in overlay.items():
        out.setdefault(sec, {})
        out[sec].update(kvs)
    return out


def snapshot_text(sections: Dict[str, dict]) -> str:
    """Canonical text of typed sections: fixed section and key order."""
    return emit_sections({
        sec: {key: format_value(sections[sec][key]) for key in keys if key in sections[sec]}
        for sec, keys in SCHEMA.items() if sec in sections})


PRESETS = {
    # full-scale recipe: 100 epochs, batch 256, lr 0.1 divided by 10 at 30/60/90
    "imagenet-recipe": """
[model.teacher]
channels = 12,24,48
[model.student]
channels = 6,12,24
[data]
source = synthetic
classes = 8
per_class_train = 200
per_class_val = 100
image_size = 16
batch_size = 256
[optim]
lr0 = 0.1
momentum = 0.9
weight_decay = 1e-4
[schedule]
milestones = 30,60,90
factor = 0.1
[distill]
temperature = 4.0
alpha = 1.0
lambda = 0.5
gkd_enabled = true
[run]
epochs = 100
seed = 0
out_dir = runs/imagenet-recipe
""",
    # small-image recipe: 200 epochs, batch 128, lr 0.1 divided by 5 at 60/120/160
    "cifar-recipe": """
[model.teacher]
channels = 12,24,48
[model.student]
channels = 6,12,24
[data]
source = synthetic
classes = 8
per_class_train = 200
per_class_val = 100
image_size = 16
batch_size = 128
pad = 4
hflip_prob = 0.5
[optim]
lr0 = 0.1
momentum = 0.9
weight_decay = 5e-4
[schedule]
milestones = 60,120,160
factor = 0.2
[distill]
temperature = 4.0
alpha = 1.0
lambda = 0.5
gkd_enabled = true
[run]
epochs = 200
seed = 0
out_dir = runs/cifar-recipe
""",
}


def preset_sections(name: str) -> Dict[str, dict]:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return parse_kv_text(PRESETS[name], origin=f"<preset:{name}>")


def load_config(path=None, preset: Optional[str] = None,
                seed: Optional[int] = None, out_dir: Optional[str] = None) -> RunConfig:
    """Resolve preset + file + CLI overrides into one validated RunConfig."""
    sections: Dict[str, dict] = {}
    if preset is not None:
        sections = preset_sections(preset)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{p}: {exc}") from None
        sections = merge_sections(sections, parse_kv_text(text, origin=str(p)))
    if not sections:
        raise ConfigError("no configuration given: pass --config and/or --preset")
    if seed is not None:
        sections.setdefault("run", {})["seed"] = seed
    if out_dir is not None:
        sections.setdefault("run", {})["out_dir"] = out_dir
    try:
        cfg = build_config(sections)
    except ConfigError as exc:
        origin = path if path is not None else f"<preset:{preset}>"
        raise ConfigError(f"{origin}: {exc}") from None
    cfg._sections = sections     # kept for the provenance snapshot
    return cfg


def load_dataset(data: DataSection, split: str) -> Dataset:
    """The configured dataset's ``split``, "train" or "val"; only that split is built."""
    train = split == "train"
    if data.source == "synthetic":
        return make_synthetic(data.classes,
                              data.per_class_train if train else data.per_class_val,
                              data.image_size, data.data_seed, split=split)
    return load_cifar_binary(data.path if train else data.val_path, data.source)
