"""Run configuration: the schema of the ``[section]`` / ``key = value``
grammar (see kvtext), strict validation, and two bundled hyperparameter
presets.

Unknown sections or keys are rejected with file/line diagnostics, every
value is type-checked on parse, and the parsed snapshot re-serializes
canonically for provenance copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from .data import Dataset, load_cifar_binary, make_synthetic
from .kvtext import emit_sections, parse_sections
from .losses import DistillConfig
from .models import NetworkSpec, StageSpec
from .optim import EdtParams, LrSchedule, SgdConfig


class ConfigError(ValueError):
    pass


# section -> key -> type tag, in canonical snapshot order
_SCHEMA = {
    "model.teacher": {"channels": "ints", "blocks": "ints", "downsample": "bools",
                      "residual": "bool"},
    "model.student": {"channels": "ints", "blocks": "ints", "downsample": "bools",
                      "residual": "bool"},
    "data": {"source": "str", "path": "str", "val_path": "str", "classes": "int",
             "per_class_train": "int", "per_class_val": "int", "image_size": "int",
             "data_seed": "int", "batch_size": "int", "pad": "int",
             "random_crop": "bool", "hflip_prob": "float"},
    "optim": {"lr0": "float", "momentum": "float", "weight_decay": "float"},
    "schedule": {"milestones": "ints", "factor": "float"},
    "distill": {"temperature": "float", "alpha": "float", "lambda": "float",
                "n_decay": "int", "gkd_enabled": "bool", "plain_kd_fallback": "bool",
                "kd_t_squared": "bool", "edt_stepwise": "bool"},
    "run": {"epochs": "int", "seed": "int", "out_dir": "str"},
}

def _bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError("expected true or false")
    return value == "true"


def _bools(value: str) -> Tuple[bool, ...]:
    items = [v.strip() for v in value.split(",") if v.strip()]
    if any(v not in ("0", "1") for v in items):
        raise ValueError("every item must be 0 or 1")
    return tuple(v == "1" for v in items)


def _ints(value: str) -> Tuple[int, ...]:
    return tuple(int(v) for v in value.split(",") if v.strip())


_PARSE = {"int": int, "float": float, "bool": _bool, "str": str, "ints": _ints,
          "bools": _bools}
_TYPED = {sec: {key: _PARSE[tag] for key, tag in keys.items()}
          for sec, keys in _SCHEMA.items()}


def parse_kv_text(text: str, origin: str = "<config>") -> Dict[str, dict]:
    """Parse and type-check; returns {section: {key: typed value}}."""
    return parse_sections(text, origin, ConfigError, _TYPED)


@dataclass
class ModelSection:
    channels: Tuple[int, ...]
    blocks: Tuple[int, ...]
    downsample: Tuple[bool, ...]
    residual: bool = True

    def to_spec(self, num_classes: int, input_channels: int) -> NetworkSpec:
        stages = tuple(StageSpec(b, c, d) for b, c, d
                       in zip(self.blocks, self.channels, self.downsample))
        spec = NetworkSpec(stages=stages, num_classes=num_classes,
                           input_channels=input_channels, residual=self.residual)
        spec.validate()
        return spec


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
    pad: int = 0
    random_crop: bool = False
    hflip_prob: float = 0.0

    @property
    def num_classes(self) -> int:
        return {"synthetic": self.classes, "cifar10": 10, "cifar100-fine": 100}[self.source]


@dataclass
class RunSection:
    epochs: int
    seed: int
    out_dir: str


@dataclass
class RunConfig:
    teacher: Optional[ModelSection]
    student: Optional[ModelSection]
    data: DataSection
    optim: SgdConfig
    schedule: LrSchedule
    distill: Optional[DistillConfig]
    edt_stepwise: bool
    run: RunSection

    def edt_params(self) -> EdtParams:
        if self.distill is None:
            raise ConfigError("no [distill] section in this config")
        n = self.distill.n_decay
        if n is None:
            n = self.schedule.milestones[0] if self.schedule.milestones else 30
        return EdtParams(alpha=self.distill.alpha, lam=self.distill.lam, n_decay=n,
                         stepwise=self.edt_stepwise)


def _model_section(sec: dict, where: str) -> ModelSection:
    if "channels" not in sec:
        raise ConfigError(f"[{where}] is missing required key 'channels'")
    channels = sec["channels"]
    n = len(channels)
    blocks = sec.get("blocks", tuple([1] * n))
    downsample = sec.get("downsample", tuple([False] + [True] * (n - 1)))
    if len(blocks) != n or len(downsample) != n:
        raise ConfigError(f"[{where}]: channels/blocks/downsample lengths differ")
    return ModelSection(channels=channels, blocks=blocks, downsample=downsample,
                        residual=sec.get("residual", True))


def build_config(sections: Dict[str, dict]) -> RunConfig:
    """Assemble a validated RunConfig from parsed sections."""
    for required in ("data", "optim", "schedule", "run"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    teacher = (_model_section(sections["model.teacher"], "model.teacher")
               if "model.teacher" in sections else None)
    student = (_model_section(sections["model.student"], "model.student")
               if "model.student" in sections else None)
    data = DataSection(**sections["data"])
    if data.source not in ("synthetic", "cifar10", "cifar100-fine"):
        raise ConfigError(f"[data] source must be synthetic/cifar10/cifar100-fine, "
                          f"got {data.source!r}")
    if data.source != "synthetic" and not data.path:
        raise ConfigError(f"[data] source {data.source} requires 'path'")
    for key, rule, ok in (("batch_size", ">= 1", data.batch_size >= 1),
                          ("per_class_train", ">= 1", data.per_class_train >= 1),
                          ("per_class_val", ">= 1", data.per_class_val >= 1),
                          ("pad", ">= 0", data.pad >= 0),
                          ("hflip_prob", "in [0, 1]", 0.0 <= data.hflip_prob <= 1.0)):
        if not ok:
            raise ConfigError(f"[data] {key} must be {rule}, got {getattr(data, key)}")
    for name, model in (("model.teacher", teacher), ("model.student", student)):
        if data.source == "synthetic" and model is not None:
            step = 1 << sum(model.downsample)     # each tap halves the resolution
            if data.image_size < 1 or data.image_size % step:
                raise ConfigError(f"[data] image_size must be a positive multiple of "
                                  f"{step} for [{name}], got {data.image_size}")
    o = sections["optim"]
    for req in ("lr0",):
        if req not in o:
            raise ConfigError(f"[optim] is missing required key '{req}'")
    optim = SgdConfig(lr0=o["lr0"], momentum=o.get("momentum", 0.9),
                      weight_decay=o.get("weight_decay", 0.0))
    s = sections["schedule"]
    schedule = LrSchedule(milestones=s.get("milestones", ()), factor=s.get("factor", 0.1))
    distill = None
    edt_stepwise = False
    if "distill" in sections:
        d = dict(sections["distill"])
        edt_stepwise = d.pop("edt_stepwise", False)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        distill = DistillConfig(**d)
    r = sections["run"]
    for req in ("epochs", "seed"):
        if req not in r:
            raise ConfigError(f"[run] is missing required key '{req}'")
    run = RunSection(epochs=r["epochs"], seed=r["seed"],
                     out_dir=r.get("out_dir", "runs/out"))
    return RunConfig(teacher=teacher, student=student, data=data, optim=optim,
                     schedule=schedule, distill=distill, edt_stepwise=edt_stepwise,
                     run=run)


def merge_sections(base: Dict[str, dict], overlay: Dict[str, dict]) -> Dict[str, dict]:
    out = {k: dict(v) for k, v in base.items()}
    for sec, kvs in overlay.items():
        out.setdefault(sec, {})
        out[sec].update(kvs)
    return out


def _fmt_value(tag: str, v) -> str:
    if tag == "bool":
        return "true" if v else "false"
    if tag == "ints":
        return ",".join(str(x) for x in v)
    if tag == "bools":
        return ",".join("1" if x else "0" for x in v)
    if tag == "float":
        return f"{v:.10g}"
    return str(v)


def snapshot_text(sections: Dict[str, dict]) -> str:
    """Canonical text of typed sections: fixed section and key order."""
    return emit_sections({
        sec: {key: _fmt_value(tag, sections[sec][key])
              for key, tag in _SCHEMA[sec].items() if key in sections[sec]}
        for sec in _SCHEMA if sec in sections})


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
random_crop = true
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
        sections = merge_sections(sections, parse_kv_text(p.read_text(), origin=str(p)))
    if not sections:
        raise ConfigError("no configuration given: pass --config and/or --preset")
    if seed is not None:
        sections.setdefault("run", {})["seed"] = seed
    if out_dir is not None:
        sections.setdefault("run", {})["out_dir"] = out_dir
    cfg = build_config(sections)
    cfg._sections = sections     # kept for the provenance snapshot
    return cfg


def load_datasets(data: DataSection) -> Tuple[Dataset, Dataset]:
    if data.source == "synthetic":
        train = make_synthetic(data.classes, data.per_class_train, data.image_size,
                               data.data_seed, split="train")
        val = make_synthetic(data.classes, data.per_class_val, data.image_size,
                             data.data_seed, split="val")
        return train, val
    variant = data.source
    train = load_cifar_binary(data.path, variant, split="train")
    if not data.val_path:
        raise ConfigError(f"[data] source {variant} requires 'val_path'")
    val = load_cifar_binary(data.val_path, variant, split="val")
    return train, val
