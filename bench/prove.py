"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, (q3 - q1) / median, beside its bound.

    python3 bench/prove.py --seeds 10 --out .bench_build/prove.json [workload ...]

Run from the root of a checkout. Seeds run 1..N; workloads default to all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as W

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*", default=list(W.WORKLOADS))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for wl in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            env = json.loads(lines[0].split(":", 1)[1])
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "values": v,
                          "spread": (q3 - q1) / med, "bound": bounds[name]}
            print(f"{wl:<12} {name:<12} median {med:10.5g}  spread {rows[name]['spread']:.4f}"
                  f"  bound {bounds[name]}")
        report["workloads"][wl] = rows
        report["environment"] = env
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
