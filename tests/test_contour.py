import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import Rect, build_grid
from harmrec.contour import marching_squares
from harmrec.grid import Grid2D

# The per-cell marching squares that `marching_squares` replaced, kept
# verbatim as the reference its polylines and their order must equal.
_SEGMENTS = {
    0: [],
    1: [(3, 0)],
    2: [(0, 1)],
    3: [(3, 1)],
    4: [(1, 2)],
    6: [(0, 2)],
    7: [(3, 2)],
    8: [(2, 3)],
    9: [(2, 0)],
    11: [(2, 1)],
    12: [(1, 3)],
    13: [(1, 0)],
    14: [(0, 3)],
    15: [],
}
_SADDLE_5 = {True: [(3, 2), (1, 0)], False: [(3, 0), (1, 2)]}
_SADDLE_10 = {True: [(0, 3), (2, 1)], False: [(0, 1), (2, 3)]}


def _edge_key(cell_i: int, cell_j: int, local: int) -> tuple[str, int, int]:
    # Horizontal edges keyed ('h', j, i) between nodes (i,j)-(i+1,j);
    # vertical edges ('v', j, i) between (i,j)-(i,j+1).
    if local == 0:
        return ("h", cell_j, cell_i)
    if local == 2:
        return ("h", cell_j + 1, cell_i)
    if local == 3:
        return ("v", cell_j, cell_i)
    return ("v", cell_j, cell_i + 1)


def _reference_marching_squares(grid: Grid2D, values: np.ndarray, level: float) -> list[np.ndarray]:
    """Extract the level set as a list of (k, 2) polyline coordinate arrays."""
    v = np.asarray(values, dtype=float)
    ny, nx = v.shape
    inside = v >= level
    xs, ys = grid.xs, grid.ys

    # Interpolated crossing point per edge, computed once.
    points: dict[tuple[str, int, int], tuple[float, float]] = {}

    def crossing(key):
        if key in points:
            return points[key]
        kind, j, i = key
        if kind == "h":
            v0, v1 = v[j, i], v[j, i + 1]
            t = (level - v0) / (v1 - v0)
            pt = (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])
        else:
            v0, v1 = v[j, i], v[j + 1, i]
            t = (level - v0) / (v1 - v0)
            pt = (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))
        points[key] = pt
        return pt

    # Build segments as pairs of edge keys.
    segments: list[tuple[tuple, tuple]] = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            code = (
                (1 if inside[j, i] else 0)
                | (2 if inside[j, i + 1] else 0)
                | (4 if inside[j + 1, i + 1] else 0)
                | (8 if inside[j + 1, i] else 0)
            )
            if code == 5:
                avg = 0.25 * (v[j, i] + v[j, i + 1] + v[j + 1, i + 1] + v[j + 1, i])
                segs = _SADDLE_5[avg >= level]
            elif code == 10:
                avg = 0.25 * (v[j, i] + v[j, i + 1] + v[j + 1, i + 1] + v[j + 1, i])
                segs = _SADDLE_10[avg >= level]
            else:
                segs = _SEGMENTS[code]
            for a, b in segs:
                segments.append((_edge_key(i, j, a), _edge_key(i, j, b)))

    # Chain segments on shared edge keys into polylines.
    adjacency: dict[tuple, list[tuple]] = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    visited = set()
    polylines = []

    def walk(start):
        path = [start]
        cur = start
        while True:
            nxt = None
            for cand in adjacency[cur]:
                edge = frozenset((cur, cand))
                if edge not in visited:
                    nxt = cand
                    visited.add(edge)
                    break
            if nxt is None:
                break
            path.append(nxt)
            cur = nxt
        return path

    endpoints = sorted(k for k, nbrs in adjacency.items() if len(nbrs) == 1)
    for key in endpoints:
        if any(frozenset((key, n)) not in visited for n in adjacency[key]):
            polylines.append(walk(key))
    for key in sorted(adjacency):  # remaining closed loops
        if any(frozenset((key, n)) not in visited for n in adjacency[key]):
            loop = walk(key)
            if loop[-1] != loop[0]:
                loop.append(loop[0])
            polylines.append(loop)

    out = []
    for path in polylines:
        pts = np.array([crossing(k) for k in path])
        out.append(pts)
    return out


def test_linear_field_gives_single_straight_contour():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    _, yg = g.meshgrid()
    lines = marching_squares(g, yg, 0.3 + 1e-9)
    assert len(lines) == 1
    pts = lines[0]
    assert np.abs(pts[:, 1] - (0.3 + 1e-9)).max() < 1e-12
    # spans the full width
    assert abs(pts[:, 0].min() - 0.0) < 1e-12
    assert abs(pts[:, 0].max() - 1.0) < 1e-12


def test_vertices_interpolate_to_level():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    xg, yg = g.meshgrid()
    v = np.exp(xg) * np.cos(2 * yg)
    level = 1.2
    for line in marching_squares(g, v, level):
        for x, y in line:
            # each vertex lies on a grid edge; re-interpolate along it
            i = int(np.floor((x - g.rect.x0) / g.h + 1e-12))
            j = int(np.floor((y - g.rect.y0) / g.h + 1e-12))
            on_vertical = abs(x - g.xs[min(i, g.nx - 1)]) < 1e-12
            if on_vertical:
                i = int(round((x - g.rect.x0) / g.h))
                t = (y - g.ys[j]) / g.h
                val = v[j, i] * (1 - t) + v[j + 1, i] * t
            else:
                t = (x - g.xs[i]) / g.h
                val = v[j, i] * (1 - t) + v[j, i + 1] * t
            assert abs(val - level) < 1e-9


def test_closed_contour_is_closed():
    g = build_grid(Rect(-1, -1, 1, 1), 1 / 16)
    xg, yg = g.meshgrid()
    v = xg**2 + yg**2
    lines = marching_squares(g, v, 0.25)
    assert len(lines) == 1
    pts = lines[0]
    assert np.allclose(pts[0], pts[-1])
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert np.abs(radii - 0.5).max() < 0.01


def test_no_contour_outside_range():
    g = build_grid(Rect(0, 0, 1, 1), 0.25)
    v = np.zeros(g.shape)
    assert marching_squares(g, v, 0.5) == []


def test_deterministic_output():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    rng = np.random.default_rng(5)
    v = rng.normal(size=g.shape)
    a = marching_squares(g, v, 0.1)
    b = marching_squares(g, v, 0.1)
    assert len(a) == len(b)
    for la, lb in zip(a, b):
        assert np.array_equal(la, lb)


def _grid(nx: int, ny: int, h: float, x0: float = 0.0, y0: float = 0.0) -> Grid2D:
    return Grid2D(rect=Rect(x0, y0, x0 + (nx - 1) * h, y0 + (ny - 1) * h), h=h, nx=nx, ny=ny)


def _assert_same_polylines(grid, values, level):
    got = marching_squares(grid, values, level)
    want = _reference_marching_squares(grid, values, level)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@st.composite
def _integer_fields(draw):
    """Small integer fields with an integer or half-integer level: plateaus,
    nodes exactly at the level and both saddle resolutions are common."""
    ny, nx = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    flat = draw(st.lists(st.integers(0, 3), min_size=nx * ny, max_size=nx * ny))
    level = draw(st.integers(0, 6)) / 2
    return _grid(nx, ny, 1.0), np.array(flat, dtype=float).reshape(ny, nx), level


@st.composite
def _smooth_fields(draw):
    """Sums of plane waves on non-square grids with non-dyadic spacing."""
    ny, nx = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    h = draw(st.sampled_from([0.1, 0.07, 1 / 3, 0.045, 0.3]))
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (-0.3, 0.7), (1.1, -2.0)]))
    grid = _grid(nx, ny, h, x0, y0)
    xg, yg = grid.meshgrid()
    waves = draw(st.lists(st.tuples(*[st.floats(-6, 6)] * 4), min_size=1, max_size=4))
    v = sum(a * np.cos(p * xg + q * yg + r) for a, p, q, r in waves)
    level = v.min() + draw(st.floats(0, 1)) * (v.max() - v.min())
    return grid, v, level


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_integer_fields())
def test_integer_fields_match_reference(case):
    _assert_same_polylines(*case)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_smooth_fields())
def test_smooth_fields_match_reference(case):
    _assert_same_polylines(*case)
