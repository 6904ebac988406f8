"""Self-contained SVG heatmaps with optional contour overlay.

Fixed 512x512 viewport, one ``<rect>`` per grid node.  Values map linearly
onto a three-anchor color ramp (low -> #313695, mid -> #ffffbf, high ->
#a50026): ``t = (v - vmin) / (vmax - vmin)`` (0.5 for a constant field),
clamped to [0, 1], interpolated between the two anchors of its half and
rounded half to even per channel.  Geometry is formatted ``%.2f``.  The data
range used for the mapping is printed in the image metadata.  The y axis
points up (grid row 0 is drawn at the bottom).

The colors of all nodes come from one array pass, as uint8 RGB.  Each
column x and row y is formatted once, and the ``<rect>`` lines are built
once per call as ASCII, with a fixed-width ``#rrggbb`` fill slot per node;
a 16-entry hex table scatters the channels' digits into the slots.  The
title is XML-escaped (``&``, ``<``, ``>``).
"""

from __future__ import annotations

import math

import numpy as np

from .measure import LevelContour
from .poisson import ScalarField

VIEW = 512

_ANCHORS = np.array([(0x31, 0x36, 0x95), (0xFF, 0xFF, 0xBF), (0xA5, 0x00, 0x26)],
                    dtype=float)
_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _fills(v: np.ndarray, vmin: float, vmax: float) -> np.ndarray:
    """uint8 RGB of every node, shaped ``v.shape + (3,)``."""
    span = vmax - vmin
    if not math.isfinite(span):  # halving is exact at these magnitudes
        v, vmin, span = v * 0.5, vmin * 0.5, vmax * 0.5 - vmin * 0.5
    t = np.full(v.shape, 0.5) if span == 0 else (v - vmin) / span
    t = np.clip(t, 0.0, 1.0)
    low = (t <= 0.5)[..., None]
    s = np.where(low, t[..., None] * 2.0, (t[..., None] - 0.5) * 2.0)
    lo = np.where(low, _ANCHORS[0], _ANCHORS[1])
    hi = np.where(low, _ANCHORS[1], _ANCHORS[2])
    return np.rint(lo + (hi - lo) * s).astype(np.uint8)  # half to even, as round()


def _rects(fld: ScalarField, vmin: float, vmax: float) -> bytearray:
    """The ``<rect>`` lines of every node as ASCII.  Each row is one join of
    its column strings; a fill slot sits a fixed distance before its line's
    end, and the line ends are a cumulative sum of the line lengths."""
    g = fld.grid
    cw = VIEW / g.nx
    ch = VIEW / g.ny
    xs = [f"{i * cw:.2f}" for i in range(g.nx)]
    size = f'" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" fill="#'
    end = '000000"/>\n'
    tails = [f'" y="{VIEW - (j + 1) * ch:.2f}{size}{end}' for j in range(g.ny)]
    head = '<rect x="'
    line_len = np.add.outer([len(t) for t in tails], [len(head) + len(x) for x in xs])
    line_end = np.cumsum(line_len)
    # before the buffer exists, so that the ramp's float temporaries are freed
    rgb = _fills(fld.values, vmin, vmax).reshape(-1, 3)
    out = bytearray(int(line_end[-1]))
    row_end = line_end.reshape(g.shape)[:, -1].tolist()
    start = 0
    for tail, stop in zip(tails, row_end):
        out[start:stop] = (head + (tail + head).join(xs) + tail).encode("ascii")
        start = stop
    slots = np.frombuffer(out, dtype=np.uint8)
    first = line_end - len(end)
    for c in range(3):
        slots[first + 2 * c] = _HEX[rgb[:, c] >> 4]
        slots[first + 2 * c + 1] = _HEX[rgb[:, c] & 15]
    return out


def render_heatmap(fld: ScalarField, path, contours: LevelContour | None = None,
                   title: str = "") -> None:
    g = fld.grid
    v = fld.values
    vmin, vmax = float(v.min()), float(v.max())
    cw = VIEW / g.nx
    ch = VIEW / g.ny
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">\n'
        f"<title>{title} [range {vmin:.6g} .. {vmax:.6g}]</title>\n"
    )
    out = []
    if contours is not None:
        for line in contours.polylines:
            pts = []
            for x, y in line:
                px = ((x - g.rect.x0) / g.h + 0.5) * cw
                py = VIEW - ((y - g.rect.y0) / g.h + 0.5) * ch
                pts.append(f"{px:.2f},{py:.2f}")
            out.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="black" stroke-width="1.5"/>\n'
            )
    out.append("</svg>\n")
    with open(path, "wb") as f:
        f.write(head.encode())
        f.write(_rects(fld, vmin, vmax))
        f.write("".join(out).encode())
