"""Self-contained SVG heatmaps with optional contour overlay.

Fixed 512x512 viewport, one ``<rect>`` per grid node.  Values map linearly
onto a three-anchor color ramp (low -> #313695, mid -> #ffffbf, high ->
#a50026): ``t = (v - vmin) / (vmax - vmin)`` (0.5 for a constant field),
clamped to [0, 1], interpolated between the two anchors of its half and
rounded half to even per channel.  Geometry is formatted ``%.2f``.  The data
range used for the mapping is printed in the image metadata.  The y axis
points up (grid row 0 is drawn at the bottom).

The colors of all nodes come from one array pass; each distinct color,
column x and row y is formatted once, and a ``<rect>`` joins those pieces.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .measure import LevelContour
from .poisson import ScalarField

VIEW = 512

_ANCHORS = np.array([(0x31, 0x36, 0x95), (0xFF, 0xFF, 0xBF), (0xA5, 0x00, 0x26)],
                    dtype=float)


def _fills(v: np.ndarray, vmin: float, vmax: float) -> list[list[str]]:
    """``#rrggbb`` of every node, as nested lists shaped like ``v``."""
    span = vmax - vmin
    if not math.isfinite(span):  # halving is exact at these magnitudes
        v, vmin, span = v * 0.5, vmin * 0.5, vmax * 0.5 - vmin * 0.5
    t = np.full(v.shape, 0.5) if span == 0 else (v - vmin) / span
    t = np.clip(t, 0.0, 1.0)
    low = (t <= 0.5)[..., None]
    s = np.where(low, t[..., None] * 2.0, (t[..., None] - 0.5) * 2.0)
    lo = np.where(low, _ANCHORS[0], _ANCHORS[1])
    hi = np.where(low, _ANCHORS[1], _ANCHORS[2])
    rgb = np.rint(lo + (hi - lo) * s).astype(np.int64)  # half to even, as round()
    codes, which = np.unique((rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2],
                             return_inverse=True)
    names = np.array([f"#{c:06x}" for c in codes.tolist()], dtype=object)
    return names[which.reshape(v.shape)].tolist()


def render_heatmap(fld: ScalarField, path, contours: LevelContour | None = None,
                   title: str = "") -> None:
    g = fld.grid
    v = fld.values
    vmin, vmax = float(v.min()), float(v.max())
    cw = VIEW / g.nx
    ch = VIEW / g.ny

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">',
        f"<title>{title} [range {vmin:.6g} .. {vmax:.6g}]</title>",
    ]
    cols = [f'<rect x="{i * cw:.2f}" y="' for i in range(g.nx)]
    size = f'" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" fill="'
    for j, row in enumerate(_fills(v, vmin, vmax)):
        tail = f"{VIEW - (j + 1) * ch:.2f}{size}"
        out.extend(f'{col}{tail}{fill}"/>' for col, fill in zip(cols, row))
    if contours is not None:
        for line in contours.polylines:
            pts = []
            for x, y in line:
                px = ((x - g.rect.x0) / g.h + 0.5) * cw
                py = VIEW - ((y - g.rect.y0) / g.h + 0.5) * ch
                pts.append(f"{px:.2f},{py:.2f}")
            out.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="black" stroke-width="1.5"/>'
            )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
