"""Step boundaries and per-layer spans, recorded from outside the program.

Each hook wraps one public cdkd function under the name its caller looks it
up by: ``train.py`` does ``from .tensor import backward``, so the hook
replaces ``cdkd.train.backward``. An untraced run installs only the two
hooks that mark step boundaries; a traced run installs them all.

A span records its name, start, end and the span open when it began. A
span's self time is its duration minus what its child spans cover, so a
conv inside ``forward_with_taps`` is counted once. Spans are kept in memory
and reduced to metrics after the run.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import statistics
import time
from collections import Counter

import numpy as np

now = time.perf_counter


class HookError(RuntimeError):
    """A hooked name does not resolve, or a hook did not fire where it must."""


class SetupOnly(Exception):
    """Ends a set-up-only probe at its first training-batch request."""


class Recorder:
    def __init__(self, traced: bool, setup_only: bool = False):
        self.traced = traced
        self.setup_only = setup_only
        self.train_ds = None          # batches of this dataset are training steps
        self.t_start = self.t_first = self.t_end = None
        self.step_start = None
        self.steps = []               # seconds per step
        self.fired = Counter()
        # traced runs only
        self.spans = []               # [name, key, t0, t1, parent, in_eval]
        self.stack = []
        self.eval_depth = 0
        self.convs = {}               # id(kernel) -> shapes of its first training call
        self.names = {}               # id(param) -> (role, name)
        self.nets = set()
        self.optimizer = None
        self.teacher_inputs = []
        self.gkd_rows = self.gkd_correct = 0
        self.ckpt_bytes = 0

    # -- spans ---------------------------------------------------------

    def enter(self, name: str, key=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, key, now(), None, parent, self.eval_depth > 0])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][3] = now()
        self.stack.pop()

    # -- run boundaries ------------------------------------------------

    def start(self) -> None:
        """Workload start: the set-up clock begins here."""
        self.t_start = now()
        if self.traced:
            self.enter("setup")

    def first_request(self) -> None:
        """The first training batch is requested: set-up ends, fit begins."""
        self.t_first = now()
        if self.setup_only:
            raise SetupOnly
        if self.traced:
            self.exit(self.stack[-1])
            self.enter("fit")

    def finish(self) -> None:
        """The train_teacher / distill call returned."""
        self.t_end = now()
        if self.traced:
            self.exit(self.stack[-1])

    def batches(self, it, training: bool):
        while True:
            if training:
                if self.t_first is None:
                    self.first_request()
                self.step_start = now()
            idx = self.enter("data.batch") if self.traced else None
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if idx is not None:
                    self.exit(idx)
            yield item


# -- hooks -----------------------------------------------------------------


def _span(rec, label, name, fn):
    def hook(*args, **kwargs):
        rec.fired[label] += 1
        idx = rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(idx)
    return hook


def _iterate_batches(rec, label, name, fn):
    def hook(ds, *args, **kwargs):
        rec.fired[label] += 1
        return rec.batches(fn(ds, *args, **kwargs), ds is rec.train_ds)
    return hook


def _zero_grad(rec, label, name, fn):
    def hook(self, *args, **kwargs):
        rec.fired[label] += 1
        out = fn(self, *args, **kwargs)
        rec.steps.append(now() - rec.step_start)
        return out
    return hook


def _optim_step(rec, label, name, fn):
    span = _span(rec, label, name, fn)
    def hook(self, *args, **kwargs):
        rec.optimizer = self
        return span(self, *args, **kwargs)
    return hook


def _forward(rec, label, name, fn):
    def hook(net, batch, *args, **kwargs):
        if rec.eval_depth:
            role = "eval"
        elif any(p.requires_grad for p in net.params.values()):
            role = "student"      # the net being trained, a teacher net on `teacher`
        else:
            role = "teacher"      # frozen
        rec.fired[f"{label}:{role}"] += 1
        if role != "eval" and id(net) not in rec.nets:
            rec.nets.add(id(net))
            rec.names.update((id(p), (role, n)) for n, p in net.params.items())
        if role == "teacher":
            rec.teacher_inputs.append(batch.data)
        idx = rec.enter(f"models.{role}_fwd")
        try:
            return fn(net, batch, *args, **kwargs)
        finally:
            rec.exit(idx)
    return hook


def _conv2d(rec, label, name, fn):
    def hook(x, kernel, stride=1, padding=0):
        rec.fired[label] += 1
        idx = rec.enter(name, id(kernel))
        try:
            out = fn(x, kernel, stride=stride, padding=padding)
        finally:
            rec.exit(idx)
        if not rec.eval_depth and id(kernel) not in rec.convs:
            rec.convs[id(kernel)] = dict(
                kernel=kernel, x_shape=x.shape, out_shape=out.shape, stride=stride,
                padding=padding, x_grad=x.requires_grad,
                k_grad=kernel.requires_grad, has_backward=out.requires_grad)
        return out
    return hook


def _gkd_loss(rec, label, name, fn):
    span = _span(rec, label, name, fn)
    def hook(student_logits, *args, **kwargs):
        out = span(student_logits, *args, **kwargs)
        rec.gkd_rows += student_logits.shape[0]
        rec.gkd_correct += out[1]
        return out
    return hook


def _evaluate(rec, label, name, fn):
    def hook(*args, **kwargs):
        rec.fired[label] += 1
        idx = rec.enter(name)     # the eval span itself is not "in eval"
        rec.eval_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            rec.eval_depth -= 1
            rec.exit(idx)
    return hook


def _save(rec, label, name, fn):
    span = _span(rec, label, name, fn)
    def hook(path, *args, **kwargs):
        out = span(path, *args, **kwargs)
        rec.ckpt_bytes += os.path.getsize(path)
        return out
    return hook


# (label, owner, attribute, span name, hook factory); the owner is a module
# name under cdkd, or "module.Class" for a method
STEP_HOOKS = [
    ("train.iterate_batches", "train", "iterate_batches", None, _iterate_batches),
    ("optim.SgdOptimizer.zero_grad", "optim.SgdOptimizer", "zero_grad", None, _zero_grad),
]
LAYER_HOOKS = [
    ("data.make_synthetic", "data", "make_synthetic", "data.setup", _span),
    ("data.channel_stats", "data", "channel_stats", "data.setup", _span),
    ("train.channel_stats", "train", "channel_stats", "data.setup", _span),
    ("train.augment_batch", "train", "augment_batch", "data.augment", _span),
    ("train.load_checkpoint", "train", "load_checkpoint", "checkpoint.load", _span),
    ("train.forward_with_taps", "train", "forward_with_taps", None, _forward),
    ("models.conv2d", "models", "conv2d", "tensor.conv_fwd", _conv2d),
    ("train.adapt_channels", "train", "adapt_channels", "models.adapter", _span),
    ("train.channel_weights", "train", "channel_weights", "losses.cd", _span),
    ("train.cd_loss", "train", "cd_loss", "losses.cd", _span),
    ("train.gkd_loss", "train", "gkd_loss", "losses.gkd", _gkd_loss),
    ("train.ce_loss", "train", "ce_loss", "losses.ce", _span),
    ("train.total_loss", "train", "total_loss", "losses.total", _span),
    ("train.backward", "train", "backward", "tensor.backward", _span),
    ("optim.SgdOptimizer.step", "optim.SgdOptimizer", "step", "optim.step", _optim_step),
    ("train.evaluate", "train", "evaluate", "train.eval", _evaluate),
    ("train.save_checkpoint", "train", "save_checkpoint", "checkpoint.save", _save),
]


def install(rec: Recorder, cdkd) -> None:
    """Patch every hook for this run, or raise HookError naming a hooked
    name that no longer resolves where it is patched."""
    hooks = STEP_HOOKS + (LAYER_HOOKS if rec.traced else [])
    for label, owner, attr, name, factory in hooks:
        mod_name, _, cls_name = owner.partition(".")
        target = importlib.import_module(f"{cdkd.__name__}.{mod_name}")
        if cls_name:
            target = getattr(target, cls_name, None)
        fn = getattr(target, attr, None)
        if not callable(fn):
            raise HookError(f"hook {label}: cdkd.{owner}.{attr} does not resolve")
        setattr(target, attr, factory(rec, label, name, fn))


def check_fired(rec: Recorder, expected: set) -> None:
    labels = expected if rec.traced else {label for label, *_ in STEP_HOOKS}
    silent = sorted(label for label in labels if not rec.fired[label])
    if silent:
        raise HookError(f"hooks that never fired on this workload: {', '.join(silent)}")


# -- reduction -------------------------------------------------------------


def self_times(rec: Recorder):
    """Per span: (duration, self time) in seconds."""
    dur = [s[3] - s[2] for s in rec.spans]
    covered = [0.0] * len(rec.spans)
    for i, s in enumerate(rec.spans):
        if s[4] is not None:
            covered[s[4]] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def _root(rec: Recorder, i: int) -> int:
    while rec.spans[i][4] is not None:
        i = rec.spans[i][4]
    return i


def accounting(rec: Recorder) -> dict:
    """Self time in seconds by span name over the fit, spans nested in an
    evaluation charged to train.eval, the fit's own self time as
    train.self. The values sum to the fit's duration."""
    dur, self_t = self_times(rec)
    fit = next(i for i, s in enumerate(rec.spans) if s[0] == "fit")
    out = Counter()
    for i, s in enumerate(rec.spans):
        if i == fit:
            out["train.self"] += self_t[i]
        elif _root(rec, i) == fit:
            out["train.eval" if s[5] else s[0]] += self_t[i]
    return dict(out)


def _param_name(rec: Recorder, kid: int) -> str:
    if kid not in rec.names and rec.optimizer is not None:
        for n, p in rec.optimizer.named_params:
            if n.startswith("adapter"):
                rec.names[id(p)] = ("adapter", n.rsplit(".", 1)[0])
    if kid not in rec.names:
        raise HookError("a conv kernel matches no parameter of any net or adapter")
    role, name = rec.names[kid]
    return f"{role}.{name}"


def layer_metrics(rec: Recorder, epochs: int) -> dict:
    """Per-layer metrics of one traced run, by metric name."""
    dur, self_t = self_times(rec)
    steps = len(rec.steps)
    total = Counter()
    count = Counter()
    conv_ms = {}
    for i, s in enumerate(rec.spans):
        if s[5]:
            continue
        total[s[0]] += dur[i]
        count[s[0]] += 1
        if s[0] == "tensor.conv_fwd":
            conv_ms.setdefault(s[1], []).append(dur[i] * 1e3)

    def per_step(name):
        return 1e3 * total[name] / steps

    m = {
        "data.setup_ms": 1e3 * total["data.setup"],
        "data.batch_ms": per_step("data.batch"),
        "data.augment_ms": per_step("data.augment"),
        "models.student_fwd_ms": per_step("models.student_fwd"),
        "models.teacher_fwd_ms": per_step("models.teacher_fwd"),
        "models.adapter_ms": per_step("models.adapter"),
        "tensor.backward_ms": per_step("tensor.backward"),
        "tensor.conv_calls": count["tensor.conv_fwd"] / steps,
        "losses.cd_ms": per_step("losses.cd"),
        "losses.gkd_ms": per_step("losses.gkd"),
        "losses.ce_ms": per_step("losses.ce"),
        "losses.total_ms": per_step("losses.total"),
        "optim.step_ms": per_step("optim.step"),
        "checkpoint.save_ms": 1e3 * total["checkpoint.save"] / max(count["checkpoint.save"], 1),
        "checkpoint.saves": count["checkpoint.save"],
        "checkpoint.bytes": rec.ckpt_bytes,
        "checkpoint.load_ms": 1e3 * total["checkpoint.load"],
        "train.eval_ms": 1e3 * total["train.eval"] / epochs,
        "train.steps": steps,
    }
    fit = next(i for i, s in enumerate(rec.spans) if s[0] == "fit")
    m["train.self_ms"] = 1e3 * self_t[fit] / epochs
    flops = 0.0
    for kid, times in conv_ms.items():
        m[f"tensor.conv_fwd_ms.{_param_name(rec, kid)}"] = statistics.median(times)
        c = rec.convs[kid]
        n, c_out, h_out, w_out = c["out_shape"]
        _, c_in, kh, kw = c["kernel"].shape
        flops += 2.0 * n * h_out * w_out * c_out * c_in * kh * kw * len(times)
    m["tensor.conv_gflops"] = flops / total["tensor.conv_fwd"] / 1e9
    if rec.gkd_rows:
        m["losses.teacher_correct_frac"] = rec.gkd_correct / rec.gkd_rows
    if rec.teacher_inputs:
        seen, repeats, rows = set(), 0, 0
        for batch in rec.teacher_inputs:
            for row in batch:
                key = hashlib.blake2b(row.tobytes(), digest_size=16).digest()
                repeats += key in seen
                seen.add(key)
                rows += 1
        m["models.teacher_repeat_frac"] = repeats / rows
    return m


def replay_conv_backward(rec: Recorder, tensor_mod, seed: int, repeats: int = 7) -> dict:
    """Backward ms of each conv that had a backward in the run, by parameter:
    the recorded shape and requires_grad flags replayed through the public
    conv2d + backward on random data, median of ``repeats`` after a warm-up."""
    rng = np.random.default_rng(seed)
    out = {}
    for kid, c in rec.convs.items():
        if not c["has_backward"]:
            continue
        x = tensor_mod.Tensor(rng.standard_normal(c["x_shape"]).astype(np.float32),
                              requires_grad=c["x_grad"])
        k = tensor_mod.Tensor(rng.standard_normal(c["kernel"].shape).astype(np.float32),
                              requires_grad=c["k_grad"])
        times = []
        for _ in range(repeats + 1):
            loss = tensor_mod.conv2d(x, k, stride=c["stride"], padding=c["padding"]).sum()
            t0 = now()
            tensor_mod.backward(loss)
            times.append(now() - t0)
            x.grad = k.grad = None
        out[f"tensor.conv_bwd_ms.{_param_name(rec, kid)}"] = 1e3 * statistics.median(times[1:])
    return out
