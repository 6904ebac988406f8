"""Self-contained SVG heatmaps with optional contour overlay.

Fixed 512x512 viewport holding one ``<image>``: a PNG with one pixel per
grid node, stretched over the viewport without smoothing, grid row 0 at the
bottom.  Values map linearly onto a three-anchor color ramp (low -> #313695,
mid -> #ffffbf, high -> #a50026): ``t = (v - vmin) / (vmax - vmin)`` (0.5
for a constant field), clamped to [0, 1], interpolated between the two
anchors of its half and rounded half to even per channel.  The XML-escaped
title prints the data range; contour coordinates are formatted ``%.2f``.
The PNG's 8-bit RGB rows (filter byte 0) sit in *stored* deflate blocks, so
its bytes do not depend on the zlib build.
"""

from __future__ import annotations

import base64
import math
import struct
import zlib

import numpy as np

from .measure import LevelContour
from .poisson import ScalarField

VIEW = 512

_ANCHORS = np.array([(0x31, 0x36, 0x95), (0xFF, 0xFF, 0xBF), (0xA5, 0x00, 0x26)],
                    dtype=float)
_STEPS = np.diff(_ANCHORS, axis=0)  # hi - lo of each half, exact integers


def _fills(v: np.ndarray, vmin: float, vmax: float) -> np.ndarray:
    """uint8 RGB of every node, shaped ``v.shape + (3,)``."""
    span = vmax - vmin
    if not math.isfinite(span):  # halving is exact at these magnitudes
        v, vmin, span = v * 0.5, vmin * 0.5, vmax * 0.5 - vmin * 0.5
    t = np.full(v.shape, 0.5) if span == 0 else (v - vmin) / span
    t = np.clip(t, 0.0, 1.0)
    half = t > 0.5
    s = (t - 0.5 * half) * 2.0
    rgb = np.empty(v.shape + (3,), dtype=np.uint8)
    for c in range(3):  # lo + (hi - lo) * s, one channel at a time
        ch = np.where(half, _STEPS[1, c], _STEPS[0, c])
        ch *= s
        ch += np.where(half, _ANCHORS[1, c], _ANCHORS[0, c])
        rgb[..., c] = np.rint(ch, out=ch)  # half to even, as round()
    return rgb


def _chunk(kind: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(data, zlib.crc32(kind))
    return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", crc)


def _png(rgb: np.ndarray) -> bytes:
    """PNG of an (rows, columns, 3) uint8 array, row 0 at the top."""
    rows, cols, _ = rgb.shape
    # filter byte 0 before each row; a stored block holds at most 65535 bytes
    raw = np.pad(rgb.reshape(rows, -1), ((0, 0), (1, 0))).tobytes()
    blocks = [raw[k:k + 0xFFFF] for k in range(0, len(raw), 0xFFFF)]
    deflate = b"".join(struct.pack("<BHH", k == len(blocks) - 1, len(b), len(b) ^ 0xFFFF) + b
                       for k, b in enumerate(blocks))
    header = struct.pack(">IIBBBBB", cols, rows, 8, 2, 0, 0, 0)  # 8-bit RGB
    idat = b"\x78\x01" + deflate + struct.pack(">I", zlib.adler32(raw))
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", header) + _chunk(b"IDAT", idat)
            + _chunk(b"IEND", b""))


def render_heatmap(fld: ScalarField, path, contours: LevelContour | None = None,
                   title: str = "") -> None:
    g = fld.grid
    v = fld.values
    vmin, vmax = float(v.min()), float(v.max())
    cw = VIEW / g.nx
    ch = VIEW / g.ny
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">\n'
        f"<title>{title} [range {vmin:.6g} .. {vmax:.6g}]</title>\n"
        f'<image width="{VIEW}" height="{VIEW}" preserveAspectRatio="none" '
        f'image-rendering="optimizeSpeed" style="image-rendering:pixelated" '
        f'xlink:href="data:image/png;base64,'
    )
    png = base64.b64encode(_png(_fills(v, vmin, vmax)[::-1]))
    out = ['"/>\n']
    if contours is not None:
        for line in contours.polylines:
            pts = np.empty(line.shape)
            pts[:, 0] = ((line[:, 0] - g.rect.x0) / g.h + 0.5) * cw
            pts[:, 1] = VIEW - ((line[:, 1] - g.rect.y0) / g.h + 0.5) * ch
            points = " ".join(["%.2f,%.2f"] * len(line)) % tuple(pts.ravel().tolist())
            out.append(
                f'<polyline points="{points}" fill="none" '
                f'stroke="black" stroke-width="1.5"/>\n'
            )
    out.append("</svg>\n")
    with open(path, "wb") as f:
        f.write(head.encode())
        f.write(png)
        f.write("".join(out).encode())
