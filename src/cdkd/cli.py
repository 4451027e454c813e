"""Command-line entry point.

Subcommands: train-teacher, distill, eval, gradcheck, plot. Every run
confines its outputs (config snapshot, metrics CSV, checkpoints, plots) to
the configured out_dir and exits 0 only when all declared artifacts were
written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, check_image_size, load_config, load_dataset, snapshot_text
from .data import AugmentConfig, channel_stats
from .models import param_shapes
from .plotting import write_metrics_svg
from .train import distill, evaluate, load_model_checkpoint, train_teacher


def _add_run_args(p: argparse.ArgumentParser, needs_config: bool) -> None:
    p.add_argument("--config", required=needs_config, help="run configuration file")
    p.add_argument("--preset", choices=("imagenet-recipe", "cifar-recipe"),
                   help="bundled hyperparameter preset (config file overrides it)")
    p.add_argument("--seed", type=int, help="override [run].seed")
    p.add_argument("--out-dir", help="override [run].out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdkd",
        description="channel-distillation training engine (teacher/student CNNs)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="train a network with plain cross entropy")
    _add_run_args(p, needs_config=False)

    p = sub.add_parser("distill", help="distill a teacher checkpoint into a student")
    _add_run_args(p, needs_config=False)
    p.add_argument("--teacher-ckpt", required=True, help="teacher checkpoint path")
    p.add_argument("--resume", help="student checkpoint to resume from")

    p = sub.add_parser("eval", help="evaluate a checkpoint on the validation split")
    _add_run_args(p, needs_config=False)
    p.add_argument("--ckpt", help="checkpoint to evaluate")

    p = sub.add_parser("gradcheck", help="run the oracle and finite-difference suite")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("plot", help="render a metrics CSV as an SVG chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", help="output SVG path (default: alongside the CSV)")
    return parser


def _origin(args) -> str:
    return args.config or f"<preset:{args.preset}>"


def _load_split(args, data, split: str):
    """The configured ``split``; one the host cannot allocate, or a synthetic
    one past numpy's array size limits (a ValueError), is refused as a
    ConfigError naming the [data] keys that size it."""
    too_big = (MemoryError, ValueError) if data.source == "synthetic" else MemoryError
    try:
        return load_dataset(data, split)
    except too_big:
        keys = (("classes", f"per_class_{split}", "image_size") if data.source == "synthetic"
                else ("path" if split == "train" else "val_path",))
        sizing = ", ".join(f"{k} = {getattr(data, k)}" for k in keys)
        raise ConfigError(f"{_origin(args)}: [data] the {split} split ({sizing}) "
                          f"does not fit in memory") from None


def _prepare(args, role: str):
    """Config, ``[model.<role>]`` spec, splits and augmentation, then the
    out-dir: a missing section, or a spec whose float32 parameters alone
    exceed the host's memory, is refused before it, naming the file."""
    cfg = load_config(path=args.config, preset=args.preset, seed=args.seed,
                      out_dir=args.out_dir)
    for section in (f"model.{role}",) + (("distill",) if role == "student" else ()):
        if getattr(cfg, section.split(".")[-1]) is None:
            raise ConfigError(f"{_origin(args)}: missing [{section}] section")
    train_ds, val_ds = (_load_split(args, cfg.data, split) for split in ("train", "val"))
    spec = replace(getattr(cfg, role), input_channels=train_ds.images.shape[1])
    nbytes = 4 * sum(math.prod(s) for s in param_shapes(spec).values())
    if nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"{_origin(args)}: [model.{role}] channels = "
                          f"{','.join(map(str, spec.channels))} needs {nbytes} bytes of "
                          f"float32 parameters, more than the host has")
    means, stds = channel_stats(train_ds)
    aug = AugmentConfig(channel_means=means, channel_stds=stds, pad=cfg.data.pad,
                        hflip_prob=cfg.data.hflip_prob)
    out_dir = Path(cfg.run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(snapshot_text(cfg._sections))
    return cfg, spec, train_ds, val_ds, aug, out_dir


def _cmd_train_teacher(args) -> int:
    cfg, spec, train_ds, val_ds, aug, out_dir = _prepare(args, "teacher")
    result = train_teacher(spec, train_ds, val_ds, cfg.optim, cfg.schedule,
                           cfg.run.epochs, cfg.run.seed, out_dir,
                           batch_size=cfg.data.batch_size, aug_cfg=aug)
    print(f"teacher trained: val top-1 error {result.val_top1:.2f}%, "
          f"top-5 {result.val_top5:.2f}%")
    print(f"artifacts in {out_dir}")
    return 0


def _cmd_distill(args) -> int:
    cfg, spec, train_ds, val_ds, aug, out_dir = _prepare(args, "student")
    # the one [distill] record, n_decay resolved, is also the EDT schedule
    result = distill(args.teacher_ckpt, spec, train_ds, val_ds, cfg.distill, cfg.optim,
                     cfg.schedule, cfg.distill, cfg.run.epochs, cfg.run.seed, out_dir,
                     batch_size=cfg.data.batch_size, aug_cfg=aug, resume_from=args.resume)
    print(f"student distilled: val top-1 error {result.val_top1:.2f}%, "
          f"top-5 {result.val_top5:.2f}%")
    print(f"artifacts in {out_dir}")
    return 0


def _cmd_eval(args) -> int:
    if not args.ckpt:
        raise ConfigError("eval needs --ckpt")
    cfg = load_config(path=args.config, preset=args.preset, seed=args.seed,
                      out_dir=args.out_dir)
    val_ds = _load_split(args, cfg.data, "val")
    net, records = load_model_checkpoint(args.ckpt)
    if val_ds.class_count != net.spec.num_classes:
        raise ConfigError(f"{args.ckpt}: model has {net.spec.num_classes} classes, but "
                          f"{_origin(args)} [data] has {val_ds.class_count}")
    check_image_size(cfg.data, net.spec, args.ckpt, origin=f"{_origin(args)}: ")
    metrics = evaluate(net, val_ds, records["normalize"].means, records["normalize"].stds,
                       cfg.data.batch_size)
    print(f"top-1 error {metrics.top1_error:.4f}%")
    print(f"top-5 error {metrics.top5_error:.4f}%")
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_all
    reports, ok = run_all(seed=args.seed)
    failures = [r for r in reports if not r.passed]
    print(f"gradcheck: {len(reports) - len(failures)}/{len(reports)} cases passed")
    for r in failures:
        print(f"  FAIL {r.case_id}: max_abs={r.max_abs_diff:.3g} "
              f"max_rel={r.max_rel_diff:.3g}")
    return 0 if ok else 1


def _cmd_plot(args) -> int:
    out = args.out or str(Path(args.csv).with_suffix(".svg"))
    write_metrics_svg(args.csv, out)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"train-teacher": _cmd_train_teacher, "distill": _cmd_distill,
                "eval": _cmd_eval, "gradcheck": _cmd_gradcheck, "plot": _cmd_plot}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
