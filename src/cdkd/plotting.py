"""Hand-rolled SVG line charts for metrics CSVs: no plotting dependency,
bytes deterministic for identical inputs.

The figure stacks two panels: loss curves with the EDT weight on a
secondary right-hand axis, and top-1/top-5 error curves. One x tick is
emitted per epoch (decimated only beyond 25 epochs).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, List, Sequence

_W, _H = 760, 560
_PANEL = dict(x0=70, width=620, height=200)
_COLORS = {
    "loss_total": "#1f77b4", "loss_cd": "#ff7f0e", "loss_gkd": "#2ca02c",
    "loss_ce": "#d62728", "edt_weight": "#9467bd",
    "train_top1": "#8c564b", "val_top1": "#1f77b4", "val_top5": "#2ca02c",
}


class CsvFormatError(ValueError):
    pass


def read_metrics_csv(path) -> Dict[str, List[float]]:
    """Each column as finite floats; anything else, undecodable bytes and
    over-long fields included, is a CsvFormatError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [name for name in ("epoch", *_COLORS)
                       if name not in (reader.fieldnames or ())]
            if missing:
                raise CsvFormatError(f"{path}: not a metrics CSV (no {', '.join(missing)} "
                                     f"column)")
            cols: Dict[str, List[float]] = {name: [] for name in reader.fieldnames}
            for row in reader:
                for name in cols:
                    try:
                        value = float(row[name])
                    except (TypeError, ValueError):
                        value = math.nan
                    if not math.isfinite(value):
                        raise CsvFormatError(
                            f"{path}: bad value {row[name]!r} in column {name}")
                    cols[name].append(value)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
    if not cols["epoch"]:
        raise CsvFormatError(f"{path}: no data rows")
    return cols


def _scale(values: Sequence[float], lo_out: float, hi_out: float):
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo
    return lambda v: lo_out + (v - lo) / span * (hi_out - lo_out), lo, hi


def _polyline(xs, ys, color) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def _panel(epochs, series: Dict[str, List[float]], y_top: int, title: str,
           secondary: str = None) -> List[str]:
    p = _PANEL
    x1 = p["x0"] + p["width"]
    y_bot = y_top + p["height"]
    sx, _, _ = _scale(epochs, p["x0"], x1)
    primary = {k: v for k, v in series.items() if k != secondary}
    all_vals = [v for vs in primary.values() for v in vs]
    sy, lo, hi = _scale(all_vals, y_bot, y_top)
    parts = [f'<text x="{p["x0"]}" y="{y_top - 8}" font-size="13">{title}</text>',
             f'<rect x="{p["x0"]}" y="{y_top}" width="{p["width"]}" '
             f'height="{p["height"]}" fill="none" stroke="#999"/>']
    step = max(1, len(epochs) // 25)
    for i, e in enumerate(epochs):
        if i % step:
            continue
        x = sx(e)
        parts.append(f'<g class="x-tick"><line x1="{x:.2f}" y1="{y_bot}" '
                     f'x2="{x:.2f}" y2="{y_bot + 4}" stroke="#333"/>'
                     f'<text x="{x:.2f}" y="{y_bot + 16}" font-size="9" '
                     f'text-anchor="middle">{int(e)}</text></g>')
    parts.append(f'<text x="{p["x0"] - 8}" y="{y_bot}" font-size="9" '
                 f'text-anchor="end">{lo:.3g}</text>')
    parts.append(f'<text x="{p["x0"] - 8}" y="{y_top + 10}" font-size="9" '
                 f'text-anchor="end">{hi:.3g}</text>')
    legend_x = p["x0"] + 6
    for name, vals in primary.items():
        color = _COLORS.get(name, "#333")
        parts.append(_polyline([sx(e) for e in epochs], [sy(v) for v in vals], color))
        parts.append(f'<text x="{legend_x}" y="{y_top + 14}" font-size="10" '
                     f'fill="{color}">{name}</text>')
        legend_x += 9 * len(name) + 14
    if secondary and secondary in series:
        s2, lo2, hi2 = _scale(series[secondary], y_bot, y_top)
        color = _COLORS.get(secondary, "#333")
        parts.append(_polyline([sx(e) for e in epochs],
                               [s2(v) for v in series[secondary]], color))
        parts.append(f'<text x="{x1 + 8}" y="{y_top + 10}" font-size="9" '
                     f'fill="{color}">{hi2:.3g}</text>')
        parts.append(f'<text x="{x1 + 8}" y="{y_bot}" font-size="9" '
                     f'fill="{color}">{lo2:.3g}</text>')
        parts.append(f'<text x="{legend_x}" y="{y_top + 14}" font-size="10" '
                     f'fill="{color}">{secondary} (right)</text>')
    return parts


def write_metrics_svg(csv_path, out_path) -> None:
    cols = read_metrics_csv(csv_path)
    epochs = cols["epoch"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}"><rect width="{_W}" height="{_H}" fill="white"/>']
    parts += _panel(epochs,
                    {k: cols[k] for k in ("loss_total", "loss_cd", "loss_gkd",
                                          "loss_ce", "edt_weight")},
                    y_top=40, title="training losses", secondary="edt_weight")
    parts += _panel(epochs,
                    {k: cols[k] for k in ("train_top1", "val_top1", "val_top5")},
                    y_top=320, title="error (%)")
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts))
