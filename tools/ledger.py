"""Write the ledger of the acceptance ablation's runs.

    python tools/ledger.py

Runs the acceptance ablation (``test_criterion_5_desk_scale_ablation``, about
80 s) in a temporary directory and writes ``tests/ablation.ledger``: this
host's fingerprint, then one line per run (the teacher, the twenty students
and the fixture's probe runs, a weak teacher among them) holding its name,
the SHA-256 of its ``metrics.csv`` less ``wall_seconds`` and the SHA-256 of
its ``final.ckpt``.
``test_ablation_runs_match_the_ledger`` checks the fixture's runs against it
on a host with the same fingerprint. A change that moves floats on purpose
rewrites the ledger in the same commit.

After writing, it prints what the rewrite changed: a line per fingerprint
key that differs, a line per run whose ``metrics.csv`` or ``final.ckpt``
digest differs from the ledger it replaced, then the count of each, as
``21 final.ckpt, 0 metrics.csv`` for a change that moved no float but the
checkpoint header.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

from same_runs import csv_rows  # noqa: E402
from worker import environment  # noqa: E402

LEDGER = ROOT / "tests" / "ablation.ledger"
FIXTURE = "tests/test_acceptance.py::test_criterion_5_desk_scale_ablation"


def blas_core() -> str:
    """The CPU kernel OpenBLAS dispatches to, found as ``bench/worker.py``
    finds its thread count; "unknown" for another BLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def fingerprint() -> dict:
    """What a run's bits depend on besides the code: Python, numpy, and the
    BLAS build and kernel."""
    env = environment()
    return {"python": env["python"], "numpy": env["numpy"], "blas": env["blas"],
            "blas_core": blas_core()}


def digests(run_dir: Path) -> tuple:
    """(SHA-256 of metrics.csv less wall_seconds, SHA-256 of final.ckpt)."""
    body = "\n".join(",".join(r) for r in csv_rows(run_dir / "metrics.csv"))
    return (hashlib.sha256(body.encode()).hexdigest(),
            hashlib.sha256((run_dir / "final.ckpt").read_bytes()).hexdigest())


def parse(text: str) -> tuple:
    """(fingerprint, {run name: digests}) of a ledger's text."""
    host, runs = {}, {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if " = " in line:
            key, value = line.split(" = ", 1)
            host[key] = value
        else:
            name, csv_sha, ckpt_sha = line.split()
            runs[name] = (csv_sha, ckpt_sha)
    return host, runs


def read(path: Path = LEDGER) -> tuple:
    """(fingerprint, {run name: digests}) of a ledger file."""
    return parse(path.read_text())


def changes(old: str, new: str) -> list:
    """What rewriting ledger text ``old`` as ``new`` changed, as lines: each
    fingerprint key that differs, each run whose metrics.csv or final.ckpt
    digest differs (a run in only one ledger differs in both), then the count
    of runs whose final.ckpt and whose metrics.csv changed."""
    (old_host, was), (new_host, now) = parse(old), parse(new)
    lines = [f"{key}: {old_host.get(key, '(none)')} -> {new_host.get(key, '(none)')}"
             for key in dict.fromkeys([*old_host, *new_host])
             if old_host.get(key) != new_host.get(key)]
    counts, absent = {"final.ckpt": 0, "metrics.csv": 0}, (None, None)
    for name in dict.fromkeys([*was, *now]):
        moved = [what for what, a, b in zip(("metrics.csv", "final.ckpt"),
                                            was.get(name, absent), now.get(name, absent))
                 if a != b]
        for what in moved:
            counts[what] += 1
        if moved:
            lines.append(f"{name}: {', '.join(moved)}")
    return lines + [", ".join(f"{n} {what}" for what, n in counts.items())]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               FIXTURE, "--basetemp", tmp], cwd=ROOT)
        if done.returncode != 0:
            print("error: the ablation fixture failed; ledger not written", file=sys.stderr)
            return 1
        tree = Path(tmp) / "ablation0"
        runs = {d.name: digests(d) for d in sorted(tree.iterdir())
                if (d / "final.ckpt").is_file()}
    lines = ["# The acceptance ablation's runs: name, SHA-256 of metrics.csv less",
             "# wall_seconds, SHA-256 of final.ckpt. Written by tools/ledger.py.",
             *(f"{k} = {v}" for k, v in fingerprint().items()),
             *(f"{name} {csv_sha} {ckpt_sha}" for name, (csv_sha, ckpt_sha) in runs.items())]
    old = LEDGER.read_text() if LEDGER.exists() else ""
    new = "\n".join(lines) + "\n"
    LEDGER.write_text(new)
    print(f"wrote {LEDGER.relative_to(ROOT)}: {len(runs)} runs")
    print("\n".join(changes(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
