"""Tiny hand-rolled SVG scatter writer (keeps plotting deps out of the
package). Output is a pure function of the inputs, so files are
byte-identical across reruns."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

_SIZE = 420
_PAD = 40


def _scale(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        lo -= 0.5
        hi += 0.5
    margin = 0.08 * (hi - lo)
    return lo - margin, hi + margin


def corner_scatter_svg(corners: np.ndarray, center: np.ndarray, note: str = "") -> Optional[str]:
    """Scatter of corner logits (circles) plus the center (cross) on the
    first two logit axes. None when a plotted range is not a positive
    finite span: logits so large that the range overflows float64, or that
    the padding around a single point is lost to rounding."""
    corners = np.asarray(corners, dtype=np.float64)[:, :2]
    center = np.asarray(center, dtype=np.float64)[:2]
    everything = np.vstack([corners, center[None, :]])
    x_lo, x_hi = _scale(everything[:, 0])
    y_lo, y_hi = _scale(everything[:, 1])
    if not (0 < x_hi - x_lo < math.inf and 0 < y_hi - y_lo < math.inf):
        return None
    span = _SIZE - 2 * _PAD

    def px(v: float) -> float:
        return _PAD + (v - x_lo) / (x_hi - x_lo) * span

    def py(v: float) -> float:
        return _SIZE - _PAD - (v - y_lo) / (y_hi - y_lo) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{span}" height="{span}" fill="none" '
        'stroke="#888" stroke-width="1"/>',
        f'<text x="{_SIZE // 2}" y="{_SIZE - 10}" font-size="12" text-anchor="middle" '
        f'fill="#444">logit 0 [{x_lo:.4g}, {x_hi:.4g}]</text>',
        f'<text x="14" y="{_SIZE // 2}" font-size="12" text-anchor="middle" fill="#444" '
        f'transform="rotate(-90 14 {_SIZE // 2})">logit 1 [{y_lo:.4g}, {y_hi:.4g}]</text>',
    ]
    for cx, cy in corners:
        parts.append(
            f'<circle cx="{px(cx):.2f}" cy="{py(cy):.2f}" r="5" fill="#1f77b4" '
            'fill-opacity="0.75"/>'
        )
    ccx, ccy = px(center[0]), py(center[1])
    parts.append(
        f'<path d="M {ccx - 7:.2f} {ccy:.2f} H {ccx + 7:.2f} M {ccx:.2f} {ccy - 7:.2f} '
        f'V {ccy + 7:.2f}" stroke="#d62728" stroke-width="2.5"/>'
    )
    if note:
        parts.append(f'<text x="{_PAD}" y="{_PAD - 10}" font-size="12" fill="#444">{note}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
