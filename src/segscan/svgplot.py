"""Standalone SVG rendering of a signal with its segmentation.

No plotting dependency: the output is SVG 1.1 markup built directly, one
stacked panel per dimension, alternating shaded bands for the segments and
optional dashed lines for reference change points.  Coordinates are rounded
to two decimals so identical inputs give byte-identical output.
"""

from __future__ import annotations

from .core import Breakpoints, Signal, _checked_int
from .exceptions import MismatchedLengthError

_MARGIN_LEFT = 46.0
_MARGIN_RIGHT = 12.0
_MARGIN_TOP = 12.0
_MARGIN_BOTTOM = 22.0
_PANEL_GAP = 14.0
_BAND_FILLS = ("#ededed", "#d6d6d6")
_LINE_COLOR = "#1f77b4"
_TRUTH_COLOR = "#c23b22"


def _fmt(value: float) -> str:
    return "%.2f" % value


def _checked_size(width, panel_height) -> tuple[int, int]:
    """width and panel_height as render_svg takes them, else BadParamError."""
    least_width = int(_MARGIN_LEFT + _MARGIN_RIGHT) + 1
    return _checked_int("width", width, least_width), _checked_int("panel_height", panel_height, 1)


def render_svg(
    signal: Signal,
    segmentation: Breakpoints,
    truth: Breakpoints | None = None,
    width: int = 900,
    panel_height: int = 130,
) -> str:
    """SVG markup of every dimension of signal, one panel each, shaded by the
    segments of segmentation and marked at truth's change points.

    width must leave a plot area inside the margins (an integer > 58) and
    panel_height must be an integer >= 1, else BadParamError; segmentation
    and truth must be Breakpoints of the signal's length, else
    MismatchedLengthError."""
    width, panel_height = _checked_size(width, panel_height)
    for bkps in (segmentation, truth):
        if bkps is not None and bkps.n_samples != signal.n_samples:
            raise MismatchedLengthError(
                f"signal has {signal.n_samples} samples, breakpoints refer to {bkps.n_samples}"
            )
    n = signal.n_samples
    d = signal.n_dims
    plot_width = width - _MARGIN_LEFT - _MARGIN_RIGHT
    height = _MARGIN_TOP + d * panel_height + (d - 1) * _PANEL_GAP + _MARGIN_BOTTOM

    def x_at(position: float) -> float:
        return _MARGIN_LEFT + position / n * plot_width

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{_fmt(height)}" '
        f'viewBox="0 0 {width} {_fmt(height)}">',
        f'<rect width="{width}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]

    for dim in range(d):
        top = _MARGIN_TOP + dim * (panel_height + _PANEL_GAP)
        column = signal.data[:, dim]
        lo = float(column.min())
        hi = float(column.max())
        if hi == lo:
            lo -= 0.5
            hi += 0.5
        span = hi - lo

        def y_at(value: float) -> float:
            return top + (hi - value) / span * panel_height

        parts.append(f'<g class="panel" data-dim="{dim}">')
        for k, (start, end) in enumerate(segmentation.segments()):
            parts.append(
                f'<rect class="regime" x="{_fmt(x_at(start))}" y="{_fmt(top)}" '
                f'width="{_fmt(x_at(end) - x_at(start))}" height="{_fmt(panel_height)}" '
                f'fill="{_BAND_FILLS[k % 2]}"/>'
            )
        points = " ".join(
            f"{_fmt(x_at(t + 0.5))},{_fmt(y_at(float(column[t])))}" for t in range(n)
        )
        parts.append(
            f'<polyline fill="none" stroke="{_LINE_COLOR}" stroke-width="1.2" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 6)}" y="{_fmt(top + 12)}" '
            'text-anchor="end" font-family="monospace" font-size="10" '
            f'fill="#444444">d{dim}</text>'
        )
        parts.append("</g>")

    if truth is not None and truth.internal:
        bottom = _MARGIN_TOP + d * panel_height + (d - 1) * _PANEL_GAP
        parts.append('<g class="truth">')
        for end in truth.internal:
            x = _fmt(x_at(end))
            parts.append(
                f'<line x1="{x}" y1="{_fmt(_MARGIN_TOP)}" x2="{x}" y2="{_fmt(bottom)}" '
                f'stroke="{_TRUTH_COLOR}" stroke-width="1" stroke-dasharray="5 3"/>'
            )
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
