"""Training harness: teacher pretraining, distillation, evaluation, and
checkpointing, all sharing one deterministic fit loop.

Teacher training and distillation with every distillation term disabled run
the identical code path and consume identical RNG streams, so the two
produce bit-identical trajectories for the same seed. The teacher network
is frozen for the whole distillation run and its parameter checksum is
verified at the end of every run. When augmentation only normalizes, the
teacher's targets for each sample are kept from its first full batch and
reused by later ones; each batch's targets are made a batch ahead on a worker thread.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (AugmentConfig, Dataset, augment_batch, channel_stats, iterate_batches,
                   normalize)
from .kvtext import emit_sections, format_record, format_value, parse_record, parse_sections
from .losses import (DistillConfig, LossBreakdown, cd_loss, ce_loss, channel_weights,
                     gkd_loss, total_loss)
from .models import (Network, NetworkSpec, adapt_channels, build_network, forward_with_taps,
                     freeze, make_adapter, param_shapes)
from .optim import EdtParams, LrSchedule, SgdConfig, SgdOptimizer, edt_weight, lr_at_epoch
from .seeds import derive, derive_epoch
from .tensor import Tensor, backward, no_grad

CSV_COLUMNS = ("epoch", "lr", "edt_weight", "loss_total", "loss_cd", "loss_gkd",
               "loss_ce", "teacher_correct_frac", "train_top1", "val_top1",
               "val_top5", "wall_seconds")


class NonFiniteLossError(RuntimeError):
    """Training hit a non-finite loss; the diagnostic dump names the step."""


@dataclass
class TrainState:
    epoch: int = 0                       # epochs completed so far
    global_step: int = 0
    seed: int = 0                        # the run's root seed; each stream derives from it
    best_val_top1: float = float("inf")

    def __post_init__(self):
        for key in ("epoch", "global_step"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        if np.isnan(self.best_val_top1):        # inf, a fresh run's value, is allowed
            raise ValueError("best_val_top1 must not be nan")


@dataclass
class Metrics:
    top1_error: float
    top5_error: float


@dataclass
class TrainResult:
    final_ckpt: Path
    best_ckpt: Path
    csv_path: Path
    state: TrainState
    val_top1: float
    val_top5: float


def topk_error(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """100 * fraction of samples whose label is not among the k largest logits."""
    k = min(k, logits.shape[1])
    topk = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    hits = (topk == labels[:, None]).any(axis=1)
    return 100.0 * (1.0 - hits.mean())


def evaluate(net: Network, ds: Dataset, means: np.ndarray, stds: np.ndarray,
             batch_size: int) -> Metrics:
    """Deterministic evaluation: unshuffled, normalization only, no augmentation.
    Run in the training batch size, it builds no larger buffer than a step. A
    row's logits do not depend on which rows share its batch, but can on its size."""
    if ds.class_count != net.spec.num_classes:
        raise ValueError(f"dataset has {ds.class_count} classes, model expects "
                         f"{net.spec.num_classes}")
    means, stds = np.asarray(means, np.float32), np.asarray(stds, np.float32)
    all_logits = []
    with no_grad():
        for _, imgs, _ in iterate_batches(ds, batch_size):
            logits, _ = forward_with_taps(net, Tensor(normalize(imgs, means, stds)))
            all_logits.append(logits.data)
    logits = np.concatenate(all_logits, axis=0)
    return Metrics(top1_error=topk_error(logits, ds.labels, 1),
                   top5_error=topk_error(logits, ds.labels, 5))


# -- checkpoint headers -------------------------------------------------------


@dataclass
class Normalization:
    """The per-channel input means and stds, the header's [normalize]. Held
    as float32 values, so equal stats compare equal whatever digits spelled them;
    each is finite and each std positive, as ``AugmentConfig`` asks."""
    means: Tuple[float, ...]
    stds: Tuple[float, ...]

    def __post_init__(self):
        self.means, self.stds = (tuple(map(float, np.asarray(v, np.float32)))
                                 for v in (self.means, self.stds))
        if not (np.isfinite(self.means + self.stds).all() and np.greater(self.stds, 0).all()):
            raise ValueError(f"stats must be finite, stds > 0: got {self.means}, {self.stds}")


@dataclass
class DataSettings:
    """What a run's batches are made of, the header's [data]: the batch
    size, the augmentation and the train split's ``Dataset.checksum``."""
    batch_size: int
    pad: int
    hflip_prob: float
    crc: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TeacherId:
    """The frozen teacher a distill run loaded, the header's [teacher]."""
    checksum: int


# header section -> its record, in header order; only [teacher] may be absent
RECORDS = {"arch.model": NetworkSpec, "normalize": Normalization, "data": DataSettings,
           "optim": SgdConfig, "schedule": LrSchedule, "distill": DistillConfig,
           "teacher": TeacherId, "state": TrainState}


def _read_checkpoint(path):
    """(records by header section, tensors by name); a missing section or field, or
    a section no record reads, raises CheckpointError naming the file, a key the
    section's record has no field for or a malformed value one naming the section too."""
    header, tensors = load_checkpoint(path)
    secs = parse_sections(header, str(path), CheckpointError)
    records = {}
    try:
        for sec, cls in RECORDS.items():
            if sec in secs or sec != "teacher":
                records[sec] = parse_record(cls, secs[sec])
    except KeyError as exc:
        raise CheckpointError(f"{path}: no {exc.args[0]!r} in header or tensors") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: [{sec}] {exc}") from None
    unknown = [sec for sec in secs if sec not in RECORDS]
    if unknown:
        raise CheckpointError(f"{path}: unknown section [{unknown[0]}]")
    norm, c = records["normalize"], records["arch.model"].input_channels
    if not len(norm.means) == len(norm.stds) == c:
        raise CheckpointError(f"{path}: [normalize] has {len(norm.means)} means and "
                              f"{len(norm.stds)} stds, [arch.model] input_channels = {c}")
    return records, tensors


def _tensor(path, tensors: Dict[str, np.ndarray], name: str, shape) -> np.ndarray:
    """The checkpoint's tensor ``name``; CheckpointError unless it has ``shape``."""
    if name not in tensors:
        raise CheckpointError(f"{path}: no {name!r} in header or tensors")
    if tensors[name].shape != shape:
        raise CheckpointError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                              f"this run needs {shape}")
    return tensors[name]


def load_model_checkpoint(path):
    """(net, records by header section), the net rebuilt from [arch.model]
    and its parameter tensors, each checked against the spec before any is used."""
    records, tensors = _read_checkpoint(path)
    spec = records["arch.model"]
    params = {name: Tensor(_tensor(path, tensors, name, shape), requires_grad=True)
              for name, shape in param_shapes(spec).items()}
    return Network(spec, params), records


def _refuse_other(path, whose: str, theirs: Dict[str, object], ours: Dict[str, object]):
    """Refuse the first section whose record read from ``path`` differs in
    value from the run's, compared as the header keeps the run's; the
    ValueError names the file, the section, the field and both values."""
    for sec in dict.fromkeys([*ours, *theirs]):
        a, b = theirs.get(sec), ours.get(sec)
        b = b if b is None else parse_record(type(b), format_record(b))
        if a != b:
            key = next(f.name for f in fields(a or b)
                       if getattr(a, f.name, None) != getattr(b, f.name, None))
            ta, tb = (format_record(r) if r is not None else {} for r in (a, b))
            raise ValueError(f"{path}: {whose} has [{sec}] {key} = {ta.get(key, '(none)')}, "
                             f"this run {tb.get(key, '(none)')}")


# -- the shared fit loop ------------------------------------------------------


def teacher_targets(teacher: Network, x: Tensor) -> List[Tensor]:
    """What CD and GKD take from the frozen teacher for input ``x``: its
    logits, then the GAP vector of each of its taps."""
    t_logits, t_taps = forward_with_taps(teacher, x)
    return [t_logits] + [channel_weights(t) for t in t_taps]


class _TeacherTargets:
    """``teacher_targets`` per training sample. A full batch whose rows are all
    kept reads them back; any other runs the teacher, and a full one keeps its
    rows. A row's bits do not depend on which rows share a batch of one size,
    but can on the size, so a short batch never reads or writes a row."""

    def __init__(self, teacher: Network, n: int, batch_size: int):
        self.teacher, self.batch_size = teacher, batch_size
        self.filled = np.zeros(n, dtype=bool)
        self.arrays: List[np.ndarray] = []   # [n, classes], then [n, c_t] per tap

    def __call__(self, idx: np.ndarray, x: Tensor) -> List[Tensor]:
        full = len(idx) == self.batch_size
        if full and self.filled[idx].all():
            return [Tensor(a[idx]) for a in self.arrays]
        outs = teacher_targets(self.teacher, x)
        if full:
            if not self.arrays:
                n = len(self.filled)
                self.arrays = [np.empty((n,) + o.shape[1:], dtype=o.data.dtype) for o in outs]
            for a, o in zip(self.arrays, outs):
                a[idx] = o.data
            self.filled[idx] = True
        return outs


def _batches(ds: Dataset, batch_size: int, order_seed: int, aug_cfg: AugmentConfig,
             aug_rng: np.random.Generator, pool, teach):
    """The epoch's (augmented input, labels, teacher targets): ``teach(indices,
    input)`` run on ``pool``, or None with no pool. Batch k+1's targets are
    submitted before batch k's are joined, so they can overlap step k."""
    held = None
    for idx, imgs, labels in iterate_batches(ds, batch_size, order_seed):
        x = Tensor(augment_batch(imgs, aug_cfg, aug_rng))
        held, batch = (x, labels, pool and pool.submit(teach, idx, x)), held
        if batch is not None:
            yield batch[:2] + (batch[2] and batch[2].result(),)
    if held is not None:
        yield held[:2] + (held[2] and held[2].result(),)


def batch_objective(net: Network, adapters: List[Optional[Tensor]], x: Tensor,
                    labels: np.ndarray, t_logits: Optional[Tensor], t_gaps: List[Tensor],
                    cfg: DistillConfig, w_edt: float):
    """The objective of one batch, edt_weight * CD + GKD + CE, for the
    student ``net`` against the teacher's logits and the GAP vector of each of
    its taps: (breakdown, teacher-correct count, student logits, student taps).
    Each student tap gets a CD term through its adapter (``None``: identity),
    so with no adapters there is no CD term."""
    s_logits, s_taps = forward_with_taps(net, x)
    cd_terms = [cd_loss(channel_weights(adapt_channels(kernel, tap)), wt)
                for kernel, wt, tap in zip(adapters, t_gaps, s_taps)]
    gkd_term, cnt = (gkd_loss(s_logits, t_logits, labels, cfg.temperature)
                     if cfg.gkd_enabled else (None, 0))
    bd = total_loss(cd_terms, gkd_term, ce_loss(s_logits, labels), w_edt)
    return bd, cnt, s_logits, s_taps


def _fit(spec: NetworkSpec, train_ds: Dataset, val_ds: Dataset, sgd_cfg: SgdConfig,
         sched: LrSchedule, epochs: int, seed: int, out_dir,
         distill_cfg: DistillConfig,
         batch_size: int = 128,
         aug_cfg: Optional[AugmentConfig] = None,
         teacher_ckpt=None,
         resume_from=None) -> TrainResult:
    out_dir = Path(out_dir)
    for split, ds in (("train", train_ds), ("val", val_ds)):
        if ds.class_count != spec.num_classes:
            raise ValueError(f"{split} split has {ds.class_count} classes, model expects "
                             f"{spec.num_classes}")
    if aug_cfg is None:
        aug_cfg = AugmentConfig(*channel_stats(train_ds))
    means, stds = aug_cfg.channel_means, aug_cfg.channel_stds
    if not len(means) == len(stds) == spec.input_channels:      # as _read_checkpoint asks
        raise ValueError(f"{len(means)} means and {len(stds)} stds, want {spec.input_channels}")

    # the run's header records; a resume must find the same values in its checkpoint
    records = {"arch.model": spec, "normalize": Normalization(means, stds),
               "data": DataSettings(batch_size, aug_cfg.pad, aug_cfg.hflip_prob,
                                    train_ds.checksum()),
               "optim": sgd_cfg, "schedule": sched, "distill": distill_cfg}

    cd_on = distill_cfg.alpha > 0.0
    need_teacher = cd_on or distill_cfg.gkd_enabled
    if need_teacher and teacher_ckpt is None:
        raise ValueError("distillation terms active but no teacher provided")

    teacher = None
    if teacher_ckpt is not None:
        teacher, t_records = load_model_checkpoint(teacher_ckpt)
        freeze(teacher)
        t_spec = teacher.spec
        for what, t_val, s_val in (("tap count", t_spec.tap_count, spec.tap_count),
                                   ("class count", t_spec.num_classes, spec.num_classes),
                                   ("input channel", t_spec.input_channels,
                                    spec.input_channels)):
            if t_val != s_val:
                raise ValueError(f"{what} mismatch: teacher {t_val}, student {s_val}")
        # the teacher must see inputs normalized as in its own training run
        _refuse_other(teacher_ckpt, "teacher", {"normalize": t_records["normalize"]},
                      {"normalize": records["normalize"]})
        records["teacher"] = TeacherId(teacher.checksum())

    if resume_from is not None:
        theirs, tensors = _read_checkpoint(resume_from)
        state = theirs.pop("state")
        _refuse_other(resume_from, "checkpoint", theirs, records)
        if state.seed != seed:
            raise ValueError(f"{resume_from}: checkpoint has [state] seed = {state.seed}, "
                             f"this run {seed}")
    else:
        state = TrainState(seed=seed)
    if epochs <= state.epoch:    # would write checkpoints but no metrics.csv row
        done = f"{resume_from}: checkpoint is at epoch {state.epoch}, so " if resume_from else ""
        raise ValueError(f"{done}epochs = {epochs} leaves no epoch to train")

    net = build_network(spec, seed=derive(seed, "model"))
    arng = np.random.default_rng(derive(seed, "adapters"))
    adapters = [make_adapter(cs, ct, arng)
                for cs, ct in zip(spec.tap_channels, teacher.spec.tap_channels)] if cd_on else []
    adapter_named = [(f"adapter{i}.w", k) for i, k in enumerate(adapters) if k is not None]
    named = net.trainable_parameters() + adapter_named
    opt = SgdOptimizer(named, sgd_cfg)
    if resume_from is not None:
        # a resume takes each trainable tensor and its velocity from the checkpoint
        for name, p in named:
            p.data = _tensor(resume_from, tensors, name, p.shape)
            opt.velocity[name] = _tensor(resume_from, tensors, f"vel.{name}", p.shape)
    out_dir.mkdir(parents=True, exist_ok=True)

    teacher_crc = records["teacher"].checksum if teacher is not None else None
    # run on the worker thread, the only one that reads or writes the cache
    teach = (_TeacherTargets(teacher, len(train_ds), batch_size) if not aug_cfg.randomizes
             else lambda idx, x: teacher_targets(teacher, x))
    csv_path = out_dir / "metrics.csv"
    csv_lines = [",".join(CSV_COLUMNS)]
    if resume_from is not None and csv_path.exists():
        # resuming into the run's own out-dir keeps the whole rows of the
        # epochs the checkpoint already covers
        old = [line.split(",") for line in csv_path.read_text().splitlines()]
        if old[:1] == [list(CSV_COLUMNS)]:
            csv_lines += [",".join(r) for r in old[1:] if len(r) == len(CSV_COLUMNS)
                          and r[0].isdigit() and int(r[0]) < state.epoch]
    # written once; each epoch then appends its row as one whole line, so a
    # run cut short leaves the rows of the epochs it finished
    csv_path.write_text("\n".join(csv_lines) + "\n")

    records["state"] = state     # the header's last section, as of each save

    def save(name: str) -> None:
        tensors = {n: p.data for n, p in net.parameters() + adapter_named}
        tensors.update(opt.state_tensors())
        save_checkpoint(out_dir / name, emit_sections(
            {sec: format_record(r) for sec, r in records.items()}), tensors)

    with (ThreadPoolExecutor(max_workers=1) if need_teacher else nullcontext()) as pool:
        for epoch in range(state.epoch, epochs):
            t_epoch = time.perf_counter()
            lr = lr_at_epoch(sched, sgd_cfg.lr0, epoch)
            # the decay weight only ever multiplies the CD term; log what is applied
            w_edt = edt_weight(distill_cfg, epoch) if cd_on else 0.0
            aug_rng = np.random.default_rng(derive_epoch(derive(seed, "augment"), epoch))
            order_seed = derive_epoch(derive(seed, "shuffle"), epoch)
            sums = np.zeros(4)    # total, cd, gkd, ce, sample-weighted
            n_seen = n_correct_teacher = n_correct_train = 0
            for x, labels, t_out in _batches(train_ds, batch_size, order_seed, aug_cfg,
                                             aug_rng, pool, teach):
                bs = len(labels)
                t_logits, *t_gaps = t_out or [None]
                # s_taps stays bound until the next step's objective returns: freed before
                # backward, glibc trims the heap top and each teacher step faults ~3,400 pages
                bd, cnt, s_logits, s_taps = batch_objective(net, adapters, x, labels, t_logits,
                                                            t_gaps, distill_cfg, w_edt)
                if not np.isfinite(bd.total):
                    _dump_diagnostic(out_dir, state, epoch, lr, bd)
                    raise NonFiniteLossError(
                        f"non-finite loss at epoch {epoch} step {state.global_step}: "
                        f"total={bd.total}")
                if abs(bd.total - (bd.edt_weight * bd.cd + bd.gkd + bd.ce)) > 1e-6:
                    raise RuntimeError("loss breakdown identity violated")

                backward(bd.objective)
                opt.step(lr)
                opt.zero_grad()

                sums += np.array([bd.total, bd.cd, bd.gkd, bd.ce]) * bs
                n_seen += bs
                n_correct_teacher += cnt
                n_correct_train += int((np.argmax(s_logits.data, axis=1) == labels).sum())
                state.global_step += 1

            state.epoch = epoch + 1
            last_val = evaluate(net, val_ds, means, stds, batch_size)
            train_top1 = 100.0 * (1.0 - n_correct_train / n_seen)
            row = [epoch, lr, w_edt,
                   sums[0] / n_seen, sums[1] / n_seen, sums[2] / n_seen, sums[3] / n_seen,
                   n_correct_teacher / n_seen, train_top1,
                   last_val.top1_error, last_val.top5_error,
                   time.perf_counter() - t_epoch]
            with csv_path.open("a") as f:
                f.write(",".join(format_value(v) for v in row) + "\n")
            if last_val.top1_error < state.best_val_top1:
                state.best_val_top1 = last_val.top1_error
                save("best.ckpt")
            save("last.ckpt")

    if teacher is not None and teacher.checksum() != teacher_crc:
        raise RuntimeError("frozen teacher parameters changed during the run")
    save("final.ckpt")
    if not (out_dir / "best.ckpt").exists():
        save("best.ckpt")
    return TrainResult(final_ckpt=out_dir / "final.ckpt",
                       best_ckpt=out_dir / "best.ckpt",
                       csv_path=csv_path, state=state,
                       val_top1=last_val.top1_error, val_top5=last_val.top5_error)


def _dump_diagnostic(out_dir: Path, state: TrainState, epoch: int, lr: float,
                     bd: LossBreakdown) -> None:
    (out_dir / "diagnostic.json").write_text(json.dumps({
        "epoch": epoch, "global_step": state.global_step, "lr": lr,
        "edt_weight": bd.edt_weight, "cd": bd.cd, "gkd": bd.gkd, "ce": bd.ce,
        "total": bd.total}, indent=2))


def train_teacher(spec: NetworkSpec, train_ds: Dataset, val_ds: Dataset,
                  sgd_cfg: SgdConfig, sched: LrSchedule, epochs: int, seed: int,
                  out_dir, batch_size: int = 128,
                  aug_cfg: Optional[AugmentConfig] = None,
                  resume_from=None) -> TrainResult:
    """Plain cross-entropy training; produces the pretrained weights that
    distillation later freezes."""
    return _fit(spec, train_ds, val_ds, sgd_cfg, sched, epochs, seed, out_dir,
                DistillConfig(alpha=0.0, gkd_enabled=False), batch_size=batch_size,
                aug_cfg=aug_cfg, resume_from=resume_from)


def distill(teacher_ckpt, student_spec: NetworkSpec, train_ds: Dataset,
            val_ds: Dataset, distill_cfg: DistillConfig, sgd_cfg: SgdConfig,
            sched: LrSchedule, edt: EdtParams, epochs: int, seed: int, out_dir,
            batch_size: int = 128, aug_cfg: Optional[AugmentConfig] = None,
            resume_from=None) -> TrainResult:
    """Teacher-supervised student training with CD, GKD and EDT.

    The teacher is loaded frozen; only student and adapter parameters enter
    the optimizer. Refused with ValueError before the first step: a teacher
    whose tap count, class count, input channels or normalization stats
    differ from the run's, with CD on an ``edt`` whose alpha, lam or n_decay
    contradict ``distill_cfg`` (an n_decay of None there accepts any), and a
    resume checkpoint with a header record that differs from the run's. An
    n_decay of None then takes ``edt.n_decay``, and [distill] records it. With
    alpha=0 and GKD disabled this reduces, bit for bit, to plain
    cross-entropy training of the student.
    """
    if distill_cfg.alpha > 0.0:
        for key in ("alpha", "lam", "n_decay"):
            want, got = getattr(distill_cfg, key), getattr(edt, key)
            if want is not None and got != want:
                raise ValueError(f"DistillConfig has {key} = {want}, EdtParams {got}")
    if distill_cfg.n_decay is None:
        distill_cfg = replace(distill_cfg, n_decay=edt.n_decay)
    return _fit(student_spec, train_ds, val_ds, sgd_cfg, sched, epochs, seed,
                out_dir, distill_cfg, batch_size=batch_size, aug_cfg=aug_cfg,
                teacher_ckpt=teacher_ckpt, resume_from=resume_from)
