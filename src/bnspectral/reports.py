"""Deterministic report writers: JSON, CSV, and a minimal SVG renderer.

Floats are rounded to 12 significant digits as they are written, so that
repeated runs with the same seed produce byte-identical artifacts.  The
JSON writer is one recursive pass.  Its bytes are exactly those of
``json.dumps(obj, indent=2, sort_keys=True)`` on ``obj`` with every float
rounded first: strings go through ``json``'s own C escaper, and ``bool``,
``None``, -0.0 and non-finite floats come out as ``json`` writes them.  A
CSV field is written by its type: an integer as is, a float rounded, and
text quoted if it holds , " or a newline."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape
from numbers import Integral
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import BaselineResult, RankingResult, SensitivityRecord, UncertaintyCurve


def _float_text(x: float) -> str:
    """``repr(float(f"{x:.12g}"))``, ``x`` rounded to 12 significant digits.
    From 1e-4 up to 1e12 the 12-digit text has no exponent and is that repr,
    with ".0" on an integer: a decimal of at most 15 significant digits is
    the shortest that reads back as its nearest double.  Text with an
    exponent, nan or inf goes through ``float``."""
    text = f"{x:.12g}"
    if "e" in text or "n" in text:
        return repr(float(text))
    return text if "." in text else text + ".0"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_KINDS = {str, float, dict, list, tuple, int, bool, type(None)}
# a subclass is written as its first base here, as ``json`` writes it once
# its floats are rounded
_JSON_BASES = (float, dict, list, tuple, str, int)


def json_text(obj: dict | list) -> str:
    """Report JSON: floats rounded, keys sorted, indented, newline-ended.
    Dict keys must be str."""
    return _json(obj, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``value`` as ``json.dumps(..., indent=2, sort_keys=True)`` writes it
    with its floats rounded, at the indent that follows ``newline``."""
    kind = type(value)
    if kind not in _JSON_KINDS:
        kind = next((base for base in _JSON_BASES if isinstance(value, base)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if kind is str:
        return _escape(value)
    if kind is float:
        text = _float_text(value)
        return _JSON_NONFINITE.get(text, text)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_escape(key) + ": " + _json(item, inner) for key, item in sorted(value.items())]
        ) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in value]
                                                ) + newline + "]"
    if kind is int:
        return int.__repr__(value)
    return _JSON_CONSTANTS[value]


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
    lines = [header]
    for row in rows:
        lines.append(",".join([_CSV_WRITERS.get(type(v), _csv_field)(v) for v in row]))
    return "\n".join(lines) + "\n"


def _csv_string(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


_CSV_WRITERS = {int: str, bool: str, float: _float_text, str: _csv_string}


def _csv_field(value) -> str:
    """A field of a type that ``_CSV_WRITERS`` does not list, such as a
    NumPy scalar: an integer as is, text quoted, another number rounded."""
    if isinstance(value, Integral):
        return str(value)
    if isinstance(value, str):
        return _csv_string(value)
    return _float_text(value)


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
