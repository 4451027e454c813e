"""The cdkd training benchmark. Run from the root of a checkout:

    python3 bench/run.py --workload distill --seed 3 --seconds 30 --trace 0

Each measured run is its own process (worker.py), so peak RSS belongs to
that run alone. Workloads are described in workloads.py. With --trace 0 the
last stdout line holds the end-to-end metrics declared in BENCHMARK.json;
with --trace 1 it holds the per-layer metrics, from traced runs alternated
with untraced ones whose fit time gives the tracing overhead.

The set-up clock runs from workload start (before the datasets are built)
to the first training-batch request; the fit clock from there until the
train_teacher / distill call returns. A step runs from a batch request to
the return of SgdOptimizer.zero_grad. The runs of one seed do identical
work step for step, so step k's time is the fastest of the runs' k-th
steps: a step another tenant of a shared host pre-empted in one run is
timed from a run where it was not, and the slow steps the program itself
makes (the same index in every run) stay in the tail.

The final val top-1 error is printed and checked (identical across the runs
of one seed, clearly better than chance) but is not a bounded metric: from
seed to seed it moves far more than any bound allows (27-72% on
distill-aug, 1.1-3.5% on teacher).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from worker import HOOK_GUARD_EXIT

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5          # set-up-only runs added to each untraced run's set-up sample
MIN_REPS = 3              # each step is timed three times at least
START_DEADLINE_S = 110    # start no measured run after this: every run ends within 180 s
REP_TIMEOUT_S = 60
TEACHER_TIMEOUT_S = 600


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


def worker_env() -> dict:
    """One BLAS/OpenMP thread per measured process. The GEMMs here are small:
    on a shared 2-CPU machine a second thread gained about 7% on the largest
    conv but made whole-run step times spread two to three times wider."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def call_worker(work: Path, env: dict, mode: str, timeout: float, **opts) -> dict:
    """Run one worker process to completion; its result dict, or an
    'errors' entry when it failed."""
    out_dir = work / f"run-{mode}"
    shutil.rmtree(out_dir, ignore_errors=True)
    result = work / f"result-{mode}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
           "--out-dir", str(out_dir), "--result", str(result)]
    for key, value in opts.items():
        if value is not None:
            cmd += [f"--{key.replace('_', '-')}", str(value)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": [f"{mode} worker timed out after {timeout:.0f} s"]}
    if proc.returncode == HOOK_GUARD_EXIT:
        raise BenchError(proc.stderr.strip())
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"{mode} worker exited {proc.returncode}: " + " | ".join(tail)]}
    out = json.loads(result.read_text())
    out.setdefault("errors", [])
    return out


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def teacher_checkpoint(root: Path, work: Path, env: dict) -> Path:
    """The frozen teacher for the distill workloads, trained once per source
    tree by the code under test, in its own process."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [BENCH_DIR / "workloads.py"]:
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    ckpt = work / f"teacher-{h.hexdigest()[:16]}.ckpt"
    if ckpt.exists():
        return ckpt
    out = call_worker(work, env, "teacher", TEACHER_TIMEOUT_S, seed=W.TEACHER_PREP_SEED)
    if out["errors"]:
        raise BenchError("teacher preparation failed: " + "; ".join(out["errors"]))
    for old in work.glob("teacher-*.ckpt"):
        old.unlink()
    os.replace(out["ckpt"], ckpt)
    shutil.rmtree(work / "run-teacher", ignore_errors=True)
    return ckpt


def declared(root: Path, kind: str) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def measure(args, wl: W.Workload, work: Path, env: dict, teacher) -> tuple:
    """Probes and measured runs until --seconds have passed; (probes, reps, errors)."""
    t0 = time.perf_counter()
    digest = file_digest(teacher) if teacher else None
    errors = []

    def one(mode, traced):
        out = call_worker(work, env, mode, REP_TIMEOUT_S, workload=wl.name, seed=args.seed,
                          trace=int(traced), teacher_ckpt=teacher)
        out["traced"] = traced
        if teacher and file_digest(teacher) != digest:
            out["errors"].append("teacher checkpoint bytes changed during the run")
        return out

    probes = [] if args.trace else [one("probe", False) for _ in range(SETUP_PROBES)]
    reps = []
    while len(reps) < MIN_REPS or time.perf_counter() - t0 < args.seconds:
        if time.perf_counter() - t0 > START_DEADLINE_S:
            break
        reps.append(one("rep", bool(args.trace) and len(reps) % 2 == 1))
    done = completed(reps)
    for r in done[1:]:
        if (r["val_top1_err"], r["csv_digest"]) != (done[0]["val_top1_err"],
                                                    done[0]["csv_digest"]):
            r["errors"].append("val error or metrics.csv differs from the first run "
                               "of the same seed")
    for r in probes + reps:
        errors.extend(r["errors"])
    return probes, reps, errors


def completed(reps) -> list:
    """Runs that trained to the end: their timings count even when an
    output check failed, which is reported through `failed`."""
    return [r for r in reps if "fit_s" in r]


def fastest_steps(runs) -> list:
    """Step k's time: the fastest k-th step of the runs (see the module doc)."""
    counts = {len(r["steps_ms"]) for r in runs}
    if len(counts) != 1:
        raise BenchError(f"runs of one seed made different step counts: {sorted(counts)}")
    return [min(ks) for ks in zip(*(r["steps_ms"] for r in runs))]


def end_to_end(probes, reps) -> dict:
    ok = completed(reps)
    setups = [r["setup_s"] for r in probes + ok if "setup_s" in r]
    steps = fastest_steps(ok)
    of = f"{len(steps)} steps, each the fastest of {len(ok)} runs"
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "fit_s": (statistics.median(r["fit_s"] for r in ok), f"median of {len(ok)} runs"),
        "step_ms_p50": (statistics.median(steps), of),
        "step_ms_p90": (statistics.quantiles(steps, n=10, method="inclusive")[8],
                        f"{of}; {len(steps) - int(0.9 * len(steps))} above p90"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok),
                        f"median of {len(ok)} runs"),
    }


def per_layer(wl: W.Workload, reps, names) -> dict:
    traced = [r for r in completed(reps) if r["traced"]]
    plain = [r for r in completed(reps) if not r["traced"]]
    undeclared = {k for r in traced for k in r["layers"]} - set(names)
    if undeclared:
        raise BenchError(f"measured per-layer metrics missing from BENCHMARK.json: "
                         f"{sorted(undeclared)}")
    out = {}
    for name in names:
        if name == "trace.overhead_pct":
            fit_t = statistics.median(r["fit_s"] for r in traced)
            fit_p = statistics.median(r["fit_s"] for r in plain)
            out[name] = (100.0 * (fit_t / fit_p - 1.0),
                         f"fit_s traced {fit_t:.3f} s vs untraced {fit_p:.3f} s")
        elif not W.applies(name, wl):
            out[name] = (0.0, "n/a")
        elif all(name in r["layers"] for r in traced):
            out[name] = (statistics.median(r["layers"][name] for r in traced),
                         f"median of {len(traced)} traced runs")
        else:
            raise BenchError(f"per-layer metric {name} was not measured on {wl.name}")
    return out


def print_accounting(rep) -> None:
    acc = rep["accounting"]
    fit = rep["fit_s"]
    print(f"# where the traced fit's {fit:.3f} s went (self time, no span counted twice):")
    for name, secs in sorted(acc.items(), key=lambda kv: -kv[1]):
        print(f"#   {name:<22} {secs:9.4f} s  {100 * secs / fit:6.2f}%")
    print(f"#   {'sum':<22} {sum(acc.values()):9.4f} s  "
          f"{100 * sum(acc.values()) / fit:6.2f}%")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cdkd" / "__init__.py").is_file():
        print(f"bench: no cdkd source under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    work = root / ".bench_build" / "cdkd-bench"
    work.mkdir(parents=True, exist_ok=True)
    env = worker_env()
    try:
        # prepared on every workload, so the first run of a checkout pays for it
        teacher = teacher_checkpoint(root, work, env)
        teacher = teacher if wl.distills else None
        probes, reps, errors = measure(args, wl, work, env, teacher)
        ok = completed(reps)
        if not ok or (args.trace and not ({r["traced"] for r in ok} >= {True, False})):
            raise BenchError("no measured run completed: " + "; ".join(errors[:3]))
        kind = "per_layer" if args.trace else "end_to_end"
        names = declared(root, kind)
        values = (per_layer(wl, reps, [n for n, _ in names]) if args.trace
                  else end_to_end(probes, reps))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in work.glob("run-*"):
            shutil.rmtree(path, ignore_errors=True)

    env_block = ok[0]["env"]
    print("# environment: " + json.dumps(env_block, sort_keys=True))
    print(f"# workload {wl.name}, seed {args.seed}: {len(probes)} set-up probes, "
          f"{len(reps)} measured runs ({sum(r['traced'] for r in reps)} traced)")
    print(f"# val_top1_err {ok[0]['val_top1_err']:.4f} %  (final val top-1 error of the "
          f"first run; all {len(ok)} runs of this seed must match it and beat "
          f"{W.chance_error():.2f} %)")
    for e in errors:
        print(f"# FAILED: {e}")
    metrics = {}
    for name, unit in names:
        if name not in values:
            print(f"bench: {kind} metric {name} has no value", file=sys.stderr)
            return 1
        value, note = values[name]
        shown = "n/a" if note == "n/a" else f"{value:.6g} {unit}"
        print(f"{name:<40} {shown:<18} ({note})")
        metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        print_accounting(min((r for r in ok if r["traced"]), key=lambda r: r["fit_s"]))
    attempted = len(probes) + len(reps)
    failed = sum(1 for r in probes + reps if r["errors"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
