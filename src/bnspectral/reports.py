"""Deterministic report writers: JSON, CSV, and a minimal SVG renderer.

Floats are rounded to 12 significant digits before serialization so that
repeated runs with the same seed produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from numbers import Integral
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import BaselineResult, RankingResult, SensitivityRecord, UncertaintyCurve


def round12(x: float) -> float:
    return float(f"{x:.12g}")


def _rounded(obj):
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def json_text(obj: dict) -> str:
    """Report JSON: floats rounded, keys sorted, indented, newline-ended."""
    return json.dumps(_rounded(obj), indent=2, sort_keys=True) + "\n"


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json_text(obj))


def baseline_to_json(baseline: BaselineResult) -> dict:
    """The fields ``report.json`` and ``baseline.json`` share for a baseline."""
    return {
        "mode": baseline.mode,
        "trials": baseline.trials,
        "seed": baseline.seed,
        "resampled": baseline.resampled,
        "mean": list(baseline.mean.values),
        "stddev": list(baseline.stddev),
    }


def curve_csv(curve: UncertaintyCurve, baseline: BaselineResult | None = None) -> str:
    if baseline is None:
        return _csv_text("l,A_l", curve.points)
    rows = zip(curve.points, baseline.mean.points, baseline.stddev)
    return _csv_text("l,A_l,mean,stddev", ((l, v, m, sd) for (l, v), (_, m), sd in rows))


def scatter_csv(records: Sequence[SensitivityRecord]) -> str:
    return _csv_text("node,in_degree,avg_sensitivity,prob_one,poincare_lower",
                     (vars(r).values() for r in records))


def spectrum_csv(rows: Sequence[dict]) -> str:
    return _csv_text("mask,degree,subset,coefficient",
                     ((r["mask"], r["degree"], r["subset"], r["coefficient"]) for r in rows))


def _csv_text(header: str, rows: Iterable[Iterable]) -> str:
    return "\n".join([header] + [",".join(map(_csv_field, row)) for row in rows]) + "\n"


def _csv_field(value) -> str:
    """An integer as is, another number by ``round12``, text quoted if it holds , " or \\n."""
    if isinstance(value, Integral):
        return str(value)
    if not isinstance(value, str):
        return repr(round12(value))
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def ranking_table(ranking: RankingResult, top: int) -> str:
    lines = [f"{'rank':>4}  {'D(j) [bit]':>12}  input"]
    for k, name in enumerate(ranking.tau[:top], start=1):
        lines.append(f"{k:>4}  {ranking.d_values[name]:>12.6f}  {name}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Minimal SVG output, for eyeballing only

_W, _H, _PAD = 640, 420, 50


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _svg_frame(body: list[str], x_label: str, y_label: str) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" stroke="black"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 12}" font-size="12" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{_H // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_H // 2})">{y_label}</text>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def curve_svg(curve: UncertaintyCurve, baseline: BaselineResult | None = None) -> str:
    xs = [float(l) for l, _ in curve.points]
    ys = list(curve.values)
    all_y = ys + (list(baseline.mean.values) if baseline else [])
    sx = _scale(xs, min(xs), max(xs), _PAD, _W - _PAD)
    lo, hi = 0.0, max(all_y) if all_y else 1.0
    body = []

    def polyline(values, color):
        pts = " ".join(f"{x:.1f},{_H - _PAD - (_H - 2 * _PAD) * (v - lo) / (hi - lo or 1):.1f}"
                       for x, v in zip(sx, values))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    polyline(ys, "black")
    if baseline is not None:
        polyline(list(baseline.mean.values), "red")
    return _svg_frame(body, "l (inputs known)", "A(l) [bit]")


def scatter_svg(records: Sequence[SensitivityRecord]) -> str:
    if not records:
        return _svg_frame([], "Pr[f(X)=1]", "average sensitivity")
    hi = max(max(r.avg_sensitivity for r in records), 1.0)
    body = []
    for r in records:
        cx = _PAD + (_W - 2 * _PAD) * r.prob_one
        cy = _H - _PAD - (_H - 2 * _PAD) * r.avg_sensitivity / hi
        body.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3" fill="none" stroke="blue"/>')
    # reference curve: 4 p (1 - p), the uniform-distribution lower bound
    pts = []
    for k in range(101):
        p = k / 100
        pts.append(f"{_PAD + (_W - 2 * _PAD) * p:.1f},"
                   f"{_H - _PAD - (_H - 2 * _PAD) * (4 * p * (1 - p)) / hi:.1f}")
    body.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="gray" stroke-dasharray="4"/>')
    return _svg_frame(body, "Pr[f(X)=1]", "average sensitivity")
