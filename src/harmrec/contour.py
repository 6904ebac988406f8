"""Marching-squares level contours of a node-centered scalar field.

Cells are the grid squares between nodes.  A node is "inside" when its value
is >= the level, and a cell's 4-bit code marks its inside corners (BL=1,
BR=2, TR=4, TL=8).  The two ambiguous saddle codes, 5 and 10, are resolved
by the cell-average rule: if the mean of the four corners is inside, the
inside corners are connected, otherwise separated.

Edges carry integer ids, in the order of (horizontal first, row j, column i):
the horizontal edge (j, i) between nodes (i, j) and (i+1, j) is
``j*(nx-1) + i``, the vertical edge (j, i) between nodes (i, j) and (i, j+1)
is ``ny*(nx-1) + j*nx + i``.  A crossing point is placed by linear
interpolation once per edge whose two ends straddle the level, so the
segments of adjacent cells chain exactly.

Every crossing edge lies on one segment of each cell beside it, so it ends
a polyline exactly when it lies on the grid boundary.  Open polylines come
first, each started from its lower end edge, in edge order.  Closed loops
follow, in the order of their lowest edge, each started there towards the
segment of the earlier cell (row-major) and ending on its first point.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid2D

# Segments per cell code, as pairs of local edges 0=bottom, 1=right, 2=top,
# 3=left.  Codes 5 and 10 hold the separated saddles; 16 and 17 are codes 5
# and 10 whose cell average is inside, so their inside corners connect.
_SEGMENTS = [[], [(3, 0)], [(0, 1)], [(3, 1)], [(1, 2)], [(3, 0), (1, 2)], [(0, 2)],
             [(3, 2)], [(2, 3)], [(2, 0)], [(0, 1), (2, 3)], [(2, 1)], [(1, 3)],
             [(1, 0)], [(0, 3)], [], [(3, 2), (1, 0)], [(0, 3), (2, 1)]]


def marching_squares(grid: Grid2D, values: np.ndarray, level: float) -> list[np.ndarray]:
    """Extract the level set as a list of (k, 2) polyline coordinate arrays."""
    v = np.asarray(values, dtype=float)
    ny, nx = v.shape
    n_h = ny * (nx - 1)
    inside = v >= level
    code = inside[:-1, :-1] + 2 * inside[:-1, 1:] + 4 * inside[1:, 1:] + 8 * inside[1:, :-1]
    avg = 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, 1:] + v[1:, :-1])
    code = np.where(((code == 5) | (code == 10)) & (avg >= level), 16 + (code == 10), code)

    # Chain the segments, built cell by cell in row-major order, on shared
    # edge ids.  No cell has two segments on one edge.
    nbrs: dict[int, list[int]] = {}
    cells = np.flatnonzero((code != 0) & (code != 15))
    for c, k in zip(cells.tolist(), code.ravel()[cells].tolist()):
        j = c // (nx - 1)
        edge = (c, n_h + c + j + 1, c + nx - 1, n_h + c + j)  # bottom, right, top, left
        for a, b in _SEGMENTS[k]:
            nbrs.setdefault(edge[a], []).append(edge[b])
            nbrs.setdefault(edge[b], []).append(edge[a])
    paths, seen = [], set()
    for start in sorted(nbrs, key=lambda e: (len(nbrs[e]) == 2, e)):
        if start in seen:
            continue
        path = [start]
        while len(path) == 1 or path[-1] != start:
            ahead = [e for e in nbrs[path[-1]] if len(path) == 1 or e != path[-2]]
            if not ahead:
                break
            path.append(ahead[0])
        seen.update(path)
        paths.append(path)

    jh, ih = np.nonzero(inside[:, :-1] != inside[:, 1:])
    jv, iv = np.nonzero(inside[:-1] != inside[1:])
    xs, ys = grid.xs, grid.ys
    th = (level - v[jh, ih]) / (v[jh, ih + 1] - v[jh, ih])
    tv = (level - v[jv, iv]) / (v[jv + 1, iv] - v[jv, iv])
    ids = np.concatenate([jh * (nx - 1) + ih, n_h + jv * nx + iv])
    pts = np.column_stack([np.concatenate([xs[ih] + th * (xs[ih + 1] - xs[ih]), xs[iv]]),
                           np.concatenate([ys[jh], ys[jv] + tv * (ys[jv + 1] - ys[jv])])])
    return [pts[np.searchsorted(ids, path)] for path in paths]
