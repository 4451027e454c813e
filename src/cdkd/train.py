"""Training harness: teacher pretraining, distillation, evaluation, and
checkpointing, all sharing one deterministic fit loop.

Teacher training and distillation with every distillation term disabled run
the identical code path and consume identical RNG streams, so the two
produce bit-identical trajectories for the same seed. The teacher network
is frozen for the whole distillation run and its parameter checksum is
verified at the end of every run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (AugmentConfig, BatchPlan, Dataset, augment_batch, channel_stats,
                   iterate_batches, normalize)
from .kvtext import emit_sections, parse_sections
from .losses import (DistillConfig, LossBreakdown, cd_loss, ce_loss, channel_weights,
                     gkd_loss, kd_loss, teacher_correct_mask, total_loss)
from .models import (ChannelAdapter, Network, NetworkSpec, adapt_channels, build_network,
                     forward_with_taps, freeze, make_adapter, spec_fields,
                     spec_from_fields)
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
    model_seed: int = 0
    shuffle_seed: int = 0
    augment_seed: int = 0
    adapter_seed: int = 0
    best_val_top1: float = float("inf")


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
    teacher_checksum: Optional[int] = None


def topk_error(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """100 * fraction of samples whose label is not among the k largest logits."""
    k = min(k, logits.shape[1])
    topk = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    hits = (topk == labels[:, None]).any(axis=1)
    return 100.0 * (1.0 - hits.mean())


def evaluate(net: Network, ds: Dataset, means: np.ndarray, stds: np.ndarray,
             batch_size: int = 256) -> Metrics:
    """Deterministic evaluation: unshuffled, normalization only, no augmentation."""
    if ds.class_count != net.spec.num_classes:
        raise ValueError(f"dataset has {ds.class_count} classes, model expects "
                         f"{net.spec.num_classes}")
    plan = BatchPlan(batch_size=batch_size, shuffle_seed=0)
    all_logits = []
    with no_grad():
        for imgs, _ in iterate_batches(ds, plan, epoch=0, shuffle=False):
            logits, _ = forward_with_taps(net, Tensor(normalize(imgs, means, stds)))
            all_logits.append(logits.data)
    logits = np.concatenate(all_logits, axis=0)
    return Metrics(top1_error=topk_error(logits, ds.labels, 1),
                   top5_error=topk_error(logits, ds.labels, 5))


# -- checkpoint headers -------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _floats_csv(values) -> str:
    return ",".join(f"{float(v):.9g}" for v in values)


def _save_run_checkpoint(path: Path, spec: NetworkSpec, net: Network,
                         adapters: Optional[List[ChannelAdapter]],
                         opt: SgdOptimizer, state: TrainState,
                         means: np.ndarray, stds: np.ndarray) -> None:
    sections = {"arch.model": spec_fields(spec)}
    if adapters is not None:
        kvs = {"count": str(len(adapters))}
        for i, a in enumerate(adapters):
            kvs[f"a{i}"] = ("identity" if a.identity_flag
                            else f"{a.in_channels}->{a.out_channels}")
        sections["adapters"] = kvs
    sections["normalize"] = {"means": _floats_csv(means), "stds": _floats_csv(stds)}
    sections["state"] = {
        "epoch": str(state.epoch),
        "global_step": str(state.global_step),
        "model_seed": str(state.model_seed),
        "shuffle_seed": str(state.shuffle_seed),
        "augment_seed": str(state.augment_seed),
        "adapter_seed": str(state.adapter_seed),
        "best_val_top1": _fmt(state.best_val_top1),
    }
    tensors: Dict[str, np.ndarray] = {}
    for name, p in net.parameters():
        tensors[name] = p.data
    if adapters is not None:
        for i, a in enumerate(adapters):
            if not a.identity_flag:
                tensors[f"adapter{i}.w"] = a.kernel.data
    tensors.update(opt.state_tensors())
    save_checkpoint(path, emit_sections(sections), tensors)


def load_model_checkpoint(path):
    """Rebuild (net, adapters, state, normalization stats, raw tensors).

    A header or tensor table that does not describe a whole run raises
    CheckpointError naming the file and what is missing or malformed.
    """
    header, tensors = load_checkpoint(path)
    secs = parse_sections(header, str(path), CheckpointError)
    try:
        spec = spec_from_fields(secs["arch.model"])
        net = build_network(spec, seed=0)
        net.load_param_values({name: tensors[name] for name, _ in net.parameters()})
        adapters = None
        if "adapters" in secs:
            adapters = []
            for i in range(int(secs["adapters"]["count"])):
                desc = secs["adapters"][f"a{i}"]
                if desc == "identity":
                    c = spec.tap_channels[i]
                    adapters.append(ChannelAdapter(c, c, identity_flag=True))
                else:
                    c_in, c_out = (int(x) for x in desc.split("->"))
                    a = ChannelAdapter(c_in, c_out, identity_flag=False,
                                       kernel=Tensor(tensors[f"adapter{i}.w"],
                                                     requires_grad=True))
                    adapters.append(a)
        st = secs["state"]
        state = TrainState(epoch=int(st["epoch"]), global_step=int(st["global_step"]),
                           model_seed=int(st["model_seed"]),
                           shuffle_seed=int(st["shuffle_seed"]),
                           augment_seed=int(st["augment_seed"]),
                           adapter_seed=int(st["adapter_seed"]),
                           best_val_top1=float(st["best_val_top1"]))
        norm = secs["normalize"]
        means = np.array([float(x) for x in norm["means"].split(",")], dtype=np.float32)
        stds = np.array([float(x) for x in norm["stds"].split(",")], dtype=np.float32)
    except KeyError as exc:
        raise CheckpointError(f"{path}: no {exc.args[0]!r} in header or tensors") from None
    except (IndexError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return net, adapters, state, (means, stds), tensors


# -- the shared fit loop ------------------------------------------------------


def _csv_row(values) -> str:
    cells = []
    for v in values:
        cells.append(str(v) if isinstance(v, int) else _fmt(v))
    return ",".join(cells)


def _fit(spec: NetworkSpec, train_ds: Dataset, val_ds: Dataset, sgd_cfg: SgdConfig,
         sched: LrSchedule, epochs: int, seed: int, out_dir,
         batch_size: int = 128,
         aug_cfg: Optional[AugmentConfig] = None,
         teacher: Optional[Network] = None,
         distill_cfg: Optional[DistillConfig] = None,
         edt: Optional[EdtParams] = None,
         resume_from=None) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if aug_cfg is None:
        means, stds = channel_stats(train_ds)
        aug_cfg = AugmentConfig(channel_means=means, channel_stds=stds)
    means, stds = aug_cfg.channel_means, aug_cfg.channel_stds

    cd_on = distill_cfg is not None and distill_cfg.cd_enabled
    gkd_on = distill_cfg is not None and distill_cfg.gkd_enabled
    kd_on = distill_cfg is not None and distill_cfg.plain_kd_fallback
    need_teacher = cd_on or gkd_on or kd_on
    if need_teacher and teacher is None:
        raise ValueError("distillation terms active but no teacher provided")

    if teacher is not None and teacher.spec.tap_count != spec.tap_count:
        raise ValueError(f"tap count mismatch: teacher {teacher.spec.tap_count}, "
                         f"student {spec.tap_count}")

    adapters: Optional[List[ChannelAdapter]] = None
    if resume_from is not None:
        net, adapters, state, (means, stds), tensors = load_model_checkpoint(resume_from)
        if net.spec != spec:
            raise ValueError("checkpoint architecture does not match requested spec")
        # resumed runs must normalize exactly as the original did
        aug_cfg = AugmentConfig(channel_means=means, channel_stds=stds,
                                pad=aug_cfg.pad, random_crop=aug_cfg.random_crop,
                                hflip_prob=aug_cfg.hflip_prob)
    else:
        state = TrainState(model_seed=derive(seed, "model"),
                           shuffle_seed=derive(seed, "shuffle"),
                           augment_seed=derive(seed, "augment"),
                           adapter_seed=derive(seed, "adapters"))
        net = build_network(spec, seed=state.model_seed)
        if cd_on:
            arng = np.random.default_rng(state.adapter_seed)
            adapters = [make_adapter(cs, ct, arng)
                        for cs, ct in zip(spec.tap_channels, teacher.spec.tap_channels)]

    named = net.trainable_parameters()
    if adapters is not None:
        for i, a in enumerate(adapters):
            if not a.identity_flag:
                named.append((f"adapter{i}.w", a.kernel))
    opt = SgdOptimizer(named, sgd_cfg)
    if resume_from is not None:
        opt.load_state_tensors(tensors)

    teacher_crc = teacher.checksum() if teacher is not None else None
    plan = BatchPlan(batch_size=batch_size, shuffle_seed=state.shuffle_seed)
    t_cfg = distill_cfg if distill_cfg is not None else DistillConfig()
    csv_path = out_dir / "metrics.csv"
    csv_lines = [",".join(CSV_COLUMNS)]
    last_val = Metrics(float("nan"), float("nan"))

    for epoch in range(state.epoch, epochs):
        t_epoch = time.perf_counter()
        lr = lr_at_epoch(sched, sgd_cfg.lr0, epoch)
        # the decay weight only ever multiplies the CD term; log what is applied
        w_edt = edt_weight(edt, epoch) if (edt is not None and cd_on) else 0.0
        aug_rng = np.random.default_rng(derive_epoch(state.augment_seed, epoch))
        sums = np.zeros(4)    # total, cd, gkd, ce, sample-weighted
        n_seen = 0
        n_correct_teacher = 0
        n_correct_train = 0
        for imgs, labels in iterate_batches(train_ds, plan, epoch):
            x = Tensor(augment_batch(imgs, aug_cfg, aug_rng))
            bs = len(labels)
            t_logits = t_taps = None
            if need_teacher:
                t_logits, t_taps = forward_with_taps(teacher, x)
            s_logits, s_taps = forward_with_taps(net, x)

            cd_terms: List[Tensor] = []
            if cd_on:
                for i, (tt, st_) in enumerate(zip(t_taps, s_taps)):
                    adapted = adapt_channels(adapters[i], st_)
                    if adapted.shape[2:] != tt.shape[2:]:
                        raise ValueError(
                            f"tap {i}: spatial mismatch {adapted.shape[2:]} vs "
                            f"{tt.shape[2:]}")
                    cd_terms.append(cd_loss(channel_weights(adapted),
                                            channel_weights(tt)))
            gkd_term = None
            cnt = 0
            if gkd_on:
                gkd_term, cnt = gkd_loss(s_logits, t_logits, labels,
                                         t_cfg.temperature, t_cfg.kd_t_squared)
            elif kd_on:
                gkd_term = kd_loss(s_logits, t_logits, t_cfg.temperature,
                                   t_cfg.kd_t_squared)
                cnt = int(teacher_correct_mask(t_logits, labels).sum())
            ce_term = ce_loss(s_logits, labels)

            bd = total_loss(cd_terms, gkd_term, ce_term, w_edt, cd_enabled=cd_on)
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
        last_val = evaluate(net, val_ds, means, stds)
        train_top1 = 100.0 * (1.0 - n_correct_train / n_seen)
        row = [epoch, lr, w_edt,
               sums[0] / n_seen, sums[1] / n_seen, sums[2] / n_seen, sums[3] / n_seen,
               n_correct_teacher / n_seen, train_top1,
               last_val.top1_error, last_val.top5_error,
               time.perf_counter() - t_epoch]
        csv_lines.append(_csv_row(row))
        csv_path.write_text("\n".join(csv_lines) + "\n")
        if last_val.top1_error < state.best_val_top1:
            state.best_val_top1 = last_val.top1_error
            _save_run_checkpoint(out_dir / "best.ckpt", spec, net, adapters, opt,
                                 state, means, stds)
        _save_run_checkpoint(out_dir / "last.ckpt", spec, net, adapters, opt,
                             state, means, stds)

    if teacher is not None and teacher.checksum() != teacher_crc:
        raise RuntimeError("frozen teacher parameters changed during the run")
    _save_run_checkpoint(out_dir / "final.ckpt", spec, net, adapters, opt,
                         state, means, stds)
    if not (out_dir / "best.ckpt").exists():
        _save_run_checkpoint(out_dir / "best.ckpt", spec, net, adapters, opt,
                             state, means, stds)
    return TrainResult(final_ckpt=out_dir / "final.ckpt",
                       best_ckpt=out_dir / "best.ckpt",
                       csv_path=csv_path, state=state,
                       val_top1=last_val.top1_error, val_top5=last_val.top5_error,
                       teacher_checksum=teacher_crc)


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
                batch_size=batch_size, aug_cfg=aug_cfg, resume_from=resume_from)


def load_teacher(path) -> Network:
    net, _, _, _, _ = load_model_checkpoint(path)
    return freeze(net)


def distill(teacher_ckpt, student_spec: NetworkSpec, train_ds: Dataset,
            val_ds: Dataset, distill_cfg: DistillConfig, sgd_cfg: SgdConfig,
            sched: LrSchedule, edt: EdtParams, epochs: int, seed: int, out_dir,
            batch_size: int = 128, aug_cfg: Optional[AugmentConfig] = None,
            resume_from=None) -> TrainResult:
    """Teacher-supervised student training with CD, GKD (or plain KD), and EDT.

    The teacher is loaded frozen; only student and adapter parameters enter
    the optimizer. With alpha=0 and both logit terms disabled this reduces,
    bit for bit, to plain cross-entropy training of the student.
    """
    teacher = load_teacher(teacher_ckpt)
    return _fit(student_spec, train_ds, val_ds, sgd_cfg, sched, epochs, seed,
                out_dir, batch_size=batch_size, aug_cfg=aug_cfg, teacher=teacher,
                distill_cfg=distill_cfg, edt=edt, resume_from=resume_from)
