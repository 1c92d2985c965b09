"""Hand-rolled SVG charts: ROC, SHAP bar, SHAP beeswarm, LIME bars.

All coordinates go through a fixed-precision formatter and any jitter is
seeded, so identical inputs always produce byte-identical markup.
"""

from __future__ import annotations

import html
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .metrics import RocCurve

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
GREEN = "#2e8b57"
RED = "#c0392b"
BLUE = "#1f77b4"

_FONT = 'font-family="Helvetica,Arial,sans-serif"'

ROC_WIDTH, ROC_HEIGHT = 520, 420
BAR_WIDTH = 560  # signed bars and the mean |SHAP| bar chart
BEESWARM_WIDTH = 620
LIME_MIN_ABS_WEIGHT = 1e-12  # LIME weights at or below this get no bar
INSTANCE_SHAP_FEATURES = 12
SHAP_BAR_FEATURES = 15
BEESWARM_FEATURES = 10


def _f(x: float) -> str:
    return f"{x:.2f}"


def _esc(text: str) -> str:
    return html.escape(str(text), quote=True)


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _axis_text(x: float, y: float, text: str, anchor="middle", size=12, extra="") -> str:
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" {_FONT} font-size="{size}" '
        f'text-anchor="{anchor}"{extra}>{_esc(text)}</text>'
    )


def plot_roc(curves: Mapping[str, RocCurve]) -> str:
    """One path per model plus a dashed diagonal reference line."""
    if not curves:
        raise DataError("no curves to plot")
    left, right, top, bottom = 60, 20, 24, 56
    pw, ph = ROC_WIDTH - left - right, ROC_HEIGHT - top - bottom

    def sx(v: float) -> float:
        return left + v * pw

    def sy(v: float) -> float:
        return top + (1.0 - v) * ph

    body = [f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="#fafafa" stroke="#cccccc"/>']
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        body.append(
            f'<line x1="{_f(sx(tick))}" y1="{_f(top + ph)}" x2="{_f(sx(tick))}" '
            f'y2="{_f(top + ph + 4)}" stroke="#666666"/>'
        )
        body.append(_axis_text(sx(tick), top + ph + 18, f"{tick:g}", size=10))
        body.append(
            f'<line x1="{_f(left - 4)}" y1="{_f(sy(tick))}" x2="{_f(left)}" '
            f'y2="{_f(sy(tick))}" stroke="#666666"/>'
        )
        body.append(_axis_text(left - 8, sy(tick) + 4, f"{tick:g}", anchor="end", size=10))
    body.append(
        f'<line class="diagonal" x1="{_f(sx(0))}" y1="{_f(sy(0))}" x2="{_f(sx(1))}" '
        f'y2="{_f(sy(1))}" stroke="#999999" stroke-dasharray="6,4"/>'
    )
    for i, (name, curve) in enumerate(curves.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(
            ("M" if j == 0 else "L") + f"{_f(sx(fpr))},{_f(sy(tpr))}"
            for j, (fpr, tpr) in enumerate(curve.points)
        )
        body.append(f'<path d="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly = top + 16 + 16 * i
        body.append(
            f'<rect x="{left + pw - 170}" y="{ly - 9}" width="12" height="4" fill="{color}"/>'
        )
        body.append(
            _axis_text(
                left + pw - 152, ly - 2, f"{name} (AUC {curve.auc:.4f})", anchor="start", size=11
            )
        )
    body.append(_axis_text(left + pw / 2, ROC_HEIGHT - 12, "False Positive Rate"))
    body.append(
        _axis_text(
            16, top + ph / 2, "True Positive Rate",
            extra=f' transform="rotate(-90 16 {_f(top + ph / 2)})"',
        )
    )
    return _svg(ROC_WIDTH, ROC_HEIGHT, body)


def _signed_bars(
    entries: Sequence[tuple[str, float]],
    pos_color: str,
    neg_color: str,
    title: str,
) -> str:
    """Horizontal signed bars with a zero axis; lengths proportional to |value|."""
    row_h = 24
    left, right, top, bottom = 210, 70, 30, 16
    height = top + bottom + row_h * max(len(entries), 1)
    pw = BAR_WIDTH - left - right
    peak = max((abs(v) for _, v in entries), default=0.0) or 1.0
    zero_x = left + pw / 2.0
    unit = (pw / 2.0) / peak

    body = [_axis_text(left + pw / 2, 18, title, size=12)]
    body.append(
        f'<line x1="{_f(zero_x)}" y1="{top}" x2="{_f(zero_x)}" '
        f'y2="{height - bottom}" stroke="#999999"/>'
    )
    for i, (name, value) in enumerate(entries):
        y = top + i * row_h
        bar_w = abs(value) * unit
        x = zero_x if value >= 0 else zero_x - bar_w
        color = pos_color if value >= 0 else neg_color
        body.append(
            f'<rect x="{_f(x)}" y="{_f(y + 4)}" width="{_f(bar_w)}" height="{row_h - 8}" '
            f'fill="{color}"/>'
        )
        body.append(_axis_text(left - 6, y + row_h / 2 + 4, name, anchor="end", size=11))
        vx = zero_x + bar_w + 4 if value >= 0 else zero_x - bar_w - 4
        body.append(
            _axis_text(
                vx, y + row_h / 2 + 4, f"{value:+.4f}",
                anchor="start" if value >= 0 else "end", size=10,
            )
        )
    return _svg(BAR_WIDTH, height, body)


def plot_lime(explanation) -> str:
    """LIME bars: positive weights green, negative red."""
    entries = [(n, w) for n, w in explanation.weights if abs(w) > LIME_MIN_ABS_WEIGHT]
    return _signed_bars(entries, GREEN, RED, "LIME feature weights (standardized features)")


def plot_instance_shap(explanation) -> str:
    """Signed per-feature SHAP contributions for one instance."""
    order = np.argsort(-np.abs(explanation.phi), kind="stable")[:INSTANCE_SHAP_FEATURES]
    entries = [(explanation.feature_names[int(j)], float(explanation.phi[int(j)])) for j in order]
    return _signed_bars(entries, RED, BLUE, f"SHAP contributions ({explanation.scale} scale)")


def plot_shap_bar(summary) -> str:
    """Global importance: mean |SHAP| per feature in ranking order."""
    ranks = list(summary.ranking[:SHAP_BAR_FEATURES])
    row_h = 24
    left, right, top, bottom = 210, 80, 30, 16
    height = top + bottom + row_h * max(len(ranks), 1)
    pw = BAR_WIDTH - left - right
    peak = max((float(summary.mean_abs[j]) for j in ranks), default=0.0) or 1.0
    body = [_axis_text(left + pw / 2, 18, "mean |SHAP value|", size=12)]
    for i, j in enumerate(ranks):
        y = top + i * row_h
        value = float(summary.mean_abs[j])
        bar_w = value / peak * pw
        body.append(
            f'<rect x="{left}" y="{_f(y + 4)}" width="{_f(bar_w)}" height="{row_h - 8}" '
            f'fill="{BLUE}"/>'
        )
        body.append(
            _axis_text(left - 6, y + row_h / 2 + 4, summary.feature_names[j], anchor="end", size=11)
        )
        body.append(_axis_text(left + bar_w + 4, y + row_h / 2 + 4, f"{value:.4f}", anchor="start", size=10))
    return _svg(BAR_WIDTH, height, body)


def _heat_color(t: float) -> str:
    """Blue (low feature value) to red (high), via purple."""
    t = min(max(t, 0.0), 1.0)
    r = int(round(31 + t * (214 - 31)))
    g = int(round(119 - t * (119 - 39)))
    b = int(round(180 - t * (180 - 40)))
    return f"#{r:02x}{g:02x}{b:02x}"


def plot_beeswarm(summary, seed: int = 0) -> str:
    """One dot per (instance, feature): x is the SHAP value, color the
    feature value, with seeded vertical jitter to show density."""
    ranks = list(summary.ranking[:BEESWARM_FEATURES])
    row_h = 34
    left, right, top, bottom = 210, 30, 30, 40
    height = top + bottom + row_h * max(len(ranks), 1)
    pw = BEESWARM_WIDTH - left - right

    sub = summary.shap_values[:, ranks]
    lo = float(sub.min()) if sub.size else -1.0
    hi = float(sub.max()) if sub.size else 1.0
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo

    def sx(v: float) -> float:
        return left + (v - lo) / span * pw

    rng = np.random.default_rng(seed)
    body = [_axis_text(left + pw / 2, 18, f"SHAP value ({summary.scale} scale)", size=12)]
    if lo < 0 < hi:
        body.append(
            f'<line x1="{_f(sx(0))}" y1="{top}" x2="{_f(sx(0))}" '
            f'y2="{height - bottom}" stroke="#bbbbbb"/>'
        )
    for i, j in enumerate(ranks):
        cy = top + i * row_h + row_h / 2
        body.append(_axis_text(left - 6, cy + 4, summary.feature_names[j], anchor="end", size=11))
        col = summary.feature_values[:, j]
        c_lo, c_hi = float(col.min()), float(col.max())
        c_span = (c_hi - c_lo) or 1.0
        jitter = rng.uniform(-row_h / 2 + 5, row_h / 2 - 5, size=col.size)
        for k in range(col.size):
            color = _heat_color((float(col[k]) - c_lo) / c_span)
            body.append(
                f'<circle cx="{_f(sx(float(summary.shap_values[k, j])))}" '
                f'cy="{_f(cy + jitter[k])}" r="2" fill="{color}" fill-opacity="0.7"/>'
            )
    for tick in (lo, 0.0 if lo < 0 < hi else (lo + hi) / 2, hi):
        body.append(_axis_text(sx(tick), height - 14, f"{tick:.2f}", size=10))
    return _svg(BEESWARM_WIDTH, height, body)
