"""One measured process: runs one workload through the public cdkd API,
checks its outputs, and writes what it measured to a JSON file.

Run from the root of a checkout; ``run.py`` starts it once per measured
run, so ``ru_maxrss`` covers this run only. Modes:

  rep      set up and train; time steps (and, with --trace 1, layers)
  probe    set up only: stop at the first training-batch request
  teacher  train the frozen teacher the distill workloads load
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

import numpy as np

import spans
import workloads as W

HOOK_GUARD_EXIT = 3


def import_cdkd(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import cdkd
    if Path(cdkd.__file__).resolve().parent != (src / "cdkd").resolve():
        raise ImportError(f"imported cdkd from {cdkd.__file__}, not from {src}")
    import cdkd.train  # noqa: F401  (the hooked modules load with the package)
    return cdkd


def run_workload(cdkd, wl: W.Workload, seed: int, rec: spans.Recorder, out_dir: Path,
                 teacher_ckpt):
    """Set-up then training, exactly as a user of the public API would run it."""
    from cdkd.data import AugmentConfig
    from cdkd.losses import DistillConfig
    from cdkd.models import NetworkSpec
    from cdkd.optim import EdtParams, LrSchedule, SgdConfig

    rec.start()
    train = cdkd.data.make_synthetic(W.CLASSES, W.PER_CLASS_TRAIN, W.IMAGE_SIZE,
                                     W.DATA_SEED, split="train")
    val = cdkd.data.make_synthetic(W.CLASSES, W.PER_CLASS_VAL, W.IMAGE_SIZE,
                                   W.DATA_SEED, split="val")
    rec.train_ds = train
    sgd = SgdConfig(lr0=W.LR0, momentum=W.MOMENTUM, weight_decay=W.WEIGHT_DECAY)
    sched = LrSchedule((wl.milestone,), W.LR_FACTOR)
    spec = NetworkSpec.from_channels(list(wl.channels), num_classes=W.CLASSES)
    if not wl.distills:
        result = cdkd.train.train_teacher(spec, train, val, sgd, sched, wl.epochs, seed,
                                          out_dir, batch_size=W.BATCH)
    else:
        aug = None
        if wl.pad:
            means, stds = cdkd.data.channel_stats(train)
            aug = AugmentConfig(means, stds, pad=wl.pad, random_crop=True,
                                hflip_prob=W.HFLIP_PROB)
        cfg = DistillConfig(temperature=W.TEMPERATURE, alpha=W.ALPHA,
                            lam=wl.distill_lambda, n_decay=W.N_DECAY, gkd_enabled=True)
        edt = EdtParams(W.ALPHA, wl.distill_lambda, W.N_DECAY)
        result = cdkd.train.distill(teacher_ckpt, spec, train, val, cfg, sgd, sched, edt,
                                    wl.epochs, seed, out_dir, batch_size=W.BATCH,
                                    aug_cfg=aug)
    rec.finish()
    return result


def check_outputs(cdkd, result) -> tuple:
    """(errors, digest of metrics.csv without its wall-time column)."""
    errors = []
    lines = Path(result.csv_path).read_text().strip().split("\n")
    header = lines[0].split(",")
    col = {name: header.index(name)
           for name in ("loss_total", "edt_weight", "loss_cd", "loss_gkd", "loss_ce")}
    for line in lines[1:]:
        v = line.split(",")
        f = {name: float(v[i]) for name, i in col.items()}
        gap = abs(f["loss_total"] - (f["edt_weight"] * f["loss_cd"] + f["loss_gkd"]
                                     + f["loss_ce"]))
        if not gap <= 1e-6:
            errors.append(f"metrics.csv epoch {v[0]}: loss identity off by {gap:.3g}")
    try:
        cdkd.checkpoint.load_checkpoint(result.final_ckpt)
    except Exception as exc:  # any failure to load is a failed output check
        errors.append(f"final.ckpt does not load: {exc!r}")
    if not result.val_top1 < W.chance_error():
        errors.append(f"val top-1 error {result.val_top1:.4g}% does not beat chance "
                      f"({W.chance_error():.4g}%)")
    body = "\n".join(",".join(line.split(",")[:-1]) for line in lines)
    return errors, hashlib.sha256(body.encode()).hexdigest()


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("rep", "probe", "teacher"), required=True)
    p.add_argument("--workload", default="teacher")
    p.add_argument("--seed", type=int, default=W.TEACHER_PREP_SEED)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--teacher-ckpt")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    cdkd = import_cdkd(Path.cwd())
    wl = W.WORKLOADS["teacher" if args.mode == "teacher" else args.workload]
    rec = spans.Recorder(traced=bool(args.trace), setup_only=args.mode == "probe")
    try:
        spans.install(rec, cdkd)
    except spans.HookError as exc:
        print(f"hook guard: {exc}", file=sys.stderr)
        return HOOK_GUARD_EXIT

    out = {"env": environment()}
    try:
        result = run_workload(cdkd, wl, args.seed, rec, Path(args.out_dir), args.teacher_ckpt)
    except spans.SetupOnly:
        out["setup_s"] = rec.t_first - rec.t_start
    else:
        try:
            spans.check_fired(rec, W.expected_hooks(wl))
        except spans.HookError as exc:
            print(f"hook guard: {exc}", file=sys.stderr)
            return HOOK_GUARD_EXIT
        out.update(
            setup_s=rec.t_first - rec.t_start, fit_s=rec.t_end - rec.t_first,
            steps_ms=[1e3 * s for s in rec.steps],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            val_top1_err=result.val_top1, ckpt=str(result.best_ckpt))
        out["errors"], out["csv_digest"] = check_outputs(cdkd, result)
        if rec.traced:
            layers = spans.layer_metrics(rec, wl.epochs)
            layers.update(spans.replay_conv_backward(rec, cdkd.tensor, args.seed))
            out["layers"] = layers
            out["accounting"] = spans.accounting(rec)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
