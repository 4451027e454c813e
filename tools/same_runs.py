"""Check that two run trees hold the same runs.

    python tools/same_runs.py A B

Files are paired by their path relative to A and to B. Each ``metrics.csv``
must match with its ``wall_seconds`` column dropped, and each ``*.ckpt``
must match byte for byte; no other file is compared. The exit status is 0
when every pair matches. Otherwise each differing or one-sided file gets one
line, and the exit status is 1. A checkpoint's line names every header key
that differs, then the first tensor that differs, or "tensors equal" when
only the header does; so a change that edits the header on purpose shows
that it kept every tensor. A tree with neither kind of file is refused with
exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cdkd.checkpoint import CheckpointError, load_checkpoint  # noqa: E402
from cdkd.kvtext import parse_sections  # noqa: E402

TIMING_COLUMN = "wall_seconds"


def compared_files(root: Path) -> dict:
    """Relative path -> path of each metrics.csv and *.ckpt under ``root``."""
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*"))
            if p.is_file() and (p.name == "metrics.csv" or p.suffix == ".ckpt")}


def csv_rows(path: Path) -> list:
    """The CSV's rows, split into fields, less the timing column."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    drop = rows[0].index(TIMING_COLUMN) if rows and TIMING_COLUMN in rows[0] else -1
    return [[v for i, v in enumerate(r) if i != drop] for r in rows]


def csv_difference(a: Path, b: Path):
    """None, or where the two CSVs first differ with the timing column dropped."""
    ra, rb = csv_rows(a), csv_rows(b)
    for n, (x, y) in enumerate(zip(ra, rb), start=1):
        if x != y:
            header = ra[0] if ra else []
            for i, (u, v) in enumerate(zip(x, y)):
                if u != v:
                    column = header[i] if i < len(header) else f"#{i + 1}"
                    return f"line {n} column {column}: {u} != {v}"
            return f"line {n}: {len(x)} fields != {len(y)}"
    if len(ra) != len(rb):
        return f"{len(ra)} lines != {len(rb)}"
    return None


def ckpt_difference(a: Path, b: Path):
    """None, or every header key where the two checkpoints differ and then
    the first differing tensor (or "tensors equal"), joined by "; "."""
    if a.read_bytes() == b.read_bytes():
        return None
    try:
        (ha, ta), (hb, tb) = load_checkpoint(a), load_checkpoint(b)
        sa = parse_sections(ha, str(a), CheckpointError)
        sb = parse_sections(hb, str(b), CheckpointError)
    except CheckpointError as exc:
        return f"bytes differ and a file does not load: {exc}"
    parts = []
    for sec in dict.fromkeys([*sa, *sb]):
        xa, xb = sa.get(sec, {}), sb.get(sec, {})
        parts += [f"header [{sec}] {key}: {xa.get(key, '(none)')} != {xb.get(key, '(none)')}"
                  for key in dict.fromkeys([*xa, *xb]) if xa.get(key) != xb.get(key)]
    tensors = "tensors equal"
    for name in dict.fromkeys([*ta, *tb]):
        x, y = ta.get(name), tb.get(name)
        if x is None or y is None:
            tensors = f"tensor {name}: only in {a if y is None else b}"
            break
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            tensors = f"tensor {name} differs"
            break
    if not parts and tensors == "tensors equal":
        return "bytes differ in layout (header or tensor order)"
    return "; ".join(parts + [tensors])


def differences(root_a: Path, root_b: Path) -> list:
    """One line per differing or one-sided file, in path order."""
    fa, fb = compared_files(root_a), compared_files(root_b)
    lines = []
    for rel in sorted(fa.keys() | fb.keys()):
        if rel not in fb or rel not in fa:
            lines.append(f"{rel}: only in {root_a if rel in fa else root_b}")
            continue
        diff = csv_difference if rel.endswith(".csv") else ckpt_difference
        why = diff(fa[rel], fb[rel])
        if why is not None:
            lines.append(f"{rel}: {why}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="first run tree")
    p.add_argument("b", type=Path, help="second run tree")
    args = p.parse_args(argv)
    for root in (args.a, args.b):
        if not compared_files(root):
            print(f"error: no metrics.csv or *.ckpt under {root}", file=sys.stderr)
            return 2
    lines = differences(args.a, args.b)
    for line in lines:
        print(line)
    if not lines:
        print(f"same runs: {len(compared_files(args.a))} files match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
