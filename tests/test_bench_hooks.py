"""Every name the benchmark patches must resolve where it patches it, and
every public call the benchmark makes must still bind.

bench/spans.py wraps public cdkd functions under the names their callers
look them up by, and bench/worker.py calls the public API with the call
shapes bound below; a renamed, inlined or reshaped name there fails the
benchmark run, so it fails here first. The hooks are read, never installed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from cdkd.data import AugmentConfig
from cdkd.losses import DistillConfig
from cdkd.models import NetworkSpec
from cdkd.optim import EdtParams, LrSchedule
from cdkd.train import distill, train_teacher

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod      # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def _hooks():
    spans = _bench_module("spans")
    return spans.STEP_HOOKS + spans.LAYER_HOOKS


@pytest.mark.parametrize("label, owner, attr", [h[:3] for h in _hooks()])
def test_hooked_name_resolves_to_a_callable(label, owner, attr):
    mod_name, _, cls_name = owner.partition(".")
    target = importlib.import_module(f"cdkd.{mod_name}")
    if cls_name:
        target = getattr(target, cls_name)
    assert callable(getattr(target, attr, None)), f"{label}: cdkd.{owner}.{attr}"


def test_bench_worker_calls_bind():
    """The calls in bench/worker.py's run_workload, with its arguments."""
    W = _bench_module("workloads")
    wl = W.WORKLOADS["distill-aug"]
    inspect.signature(train_teacher).bind("spec", "train", "val", "sgd", "sched",
                                          wl.epochs, 1, "out_dir", batch_size=W.BATCH)
    inspect.signature(distill).bind("teacher_ckpt", "spec", "train", "val", "cfg", "sgd",
                                    "sched", "edt", wl.epochs, 3, "out_dir",
                                    batch_size=W.BATCH, aug_cfg=None)
    DistillConfig(temperature=W.TEMPERATURE, alpha=W.ALPHA, lam=wl.distill_lambda,
                  n_decay=W.N_DECAY, gkd_enabled=True)
    EdtParams(W.ALPHA, wl.distill_lambda, W.N_DECAY)
    AugmentConfig(np.zeros(3, np.float32), np.ones(3, np.float32), pad=wl.pad,
                  random_crop=True, hflip_prob=W.HFLIP_PROB)
    for wl in W.WORKLOADS.values():
        NetworkSpec.from_channels(list(wl.channels), num_classes=W.CLASSES)
        LrSchedule((wl.milestone,), W.LR_FACTOR)
