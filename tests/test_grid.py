import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import Rect, ValidationError, boundary_partition, build_grid
from harmrec.grid import SIDES


def test_rect_rejects_degenerate():
    with pytest.raises(ValidationError):
        Rect(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        Rect(0.0, 1.0, 1.0, 0.5)


def test_build_grid_node_counts():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 64)
    assert (g.nx, g.ny) == (65, 65)
    g = build_grid(Rect(0, 0, 1, 1), 0.5)
    assert (g.nx, g.ny) == (3, 3)


def test_build_grid_rejects_nondivisible_spacing():
    with pytest.raises(ValidationError, match="x"):
        build_grid(Rect(0, 0, 1, 1), 0.3)
    with pytest.raises(ValidationError, match="y"):
        build_grid(Rect(0, 0, 1, 0.5), 0.2)  # 0.2 divides x-extent 1, not 0.5
    with pytest.raises(ValidationError, match="x"):
        build_grid(Rect(0, 0, 1e308, 1), 1 / 64)  # 1e308 / h overflows to inf


def test_node_coordinate_roundtrip():
    g = build_grid(Rect(-0.25, 0.5, 1.75, 1.5), 0.125)
    for j, y in enumerate(g.ys):
        for i, x in enumerate(g.xs):
            assert g.nearest_node(x, y) == (i, j)


def test_boundary_counts_one_side():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 64)
    p = boundary_partition(g, ["bottom"])
    assert p.n_boundary == 256
    assert p.m == 65


def test_boundary_counts_two_sides_and_shared_corner():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 64)
    assert boundary_partition(g, ["bottom", "top"]).m == 130
    # adjacent sides share one corner node, counted once
    assert boundary_partition(g, ["bottom", "right"]).m == 129


def test_gamma_quadrature_is_side_restricted_trapezoid():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    # endpoints carry h/2, interior nodes h; total is the side length
    assert abs(p.gamma_sigma.sum() - 1.0) < 1e-12
    assert abs(p.gamma_sigma[0] - g.h / 2) < 1e-15
    assert abs(p.gamma_sigma[1] - g.h) < 1e-15
    # a corner joining two flagged sides carries h
    p2 = boundary_partition(g, ["bottom", "right"])
    corner = np.where((p2.gamma_nodes[:, 0] == g.nx - 1)
                      & (p2.gamma_nodes[:, 1] == 0))[0][0]
    assert abs(p2.gamma_sigma[corner] - g.h) < 1e-15
    assert abs(p2.gamma_sigma.sum() - 2.0) < 1e-12


def test_every_boundary_node_once():
    g = build_grid(Rect(0, 0, 1, 1), 0.25)
    p = boundary_partition(g, ["top"])
    seen = {(int(i), int(j)) for i, j in p.nodes}
    assert len(seen) == p.n_boundary == 16


def test_empty_gamma_rejected():
    g = build_grid(Rect(0, 0, 1, 1), 0.25)
    with pytest.raises(ValidationError, match="nonempty"):
        boundary_partition(g, [])
    with pytest.raises(ValidationError):
        boundary_partition(g, ["north"])


def test_gamma_normals_corner_tiebreak():
    g = build_grid(Rect(0, 0, 1, 1), 0.25)
    # corner (0,0) with only the left side measured: left normal
    p = boundary_partition(g, ["left"])
    sides, normals = p.gamma_normals()
    k = np.where((p.gamma_nodes[:, 0] == 0) & (p.gamma_nodes[:, 1] == 0))[0][0]
    assert sides[k] == "left"
    assert tuple(normals[k]) == (-1.0, 0.0)
    # both incident sides measured: the vertical-normal side wins
    p2 = boundary_partition(g, ["left", "bottom"])
    sides2, normals2 = p2.gamma_normals()
    k2 = np.where((p2.gamma_nodes[:, 0] == 0) & (p2.gamma_nodes[:, 1] == 0))[0][0]
    assert sides2[k2] == "bottom"
    assert tuple(normals2[k2]) == (0.0, -1.0)


SIDE_NORMAL = {"bottom": (0.0, -1.0), "right": (1.0, 0.0), "top": (0.0, 1.0), "left": (-1.0, 0.0)}


def _oracle_partition(grid, gamma_sides):
    """The boundary partition computed node by node, as the library did
    before it derived everything from the side of each walk segment: each
    node's sides from its coordinates, each segment's side as the side both
    its ends lie on, and D1 assembled over the runs of consecutive Γ nodes.
    Returns (nodes, mask, gamma_sigma, normal side names, D1)."""
    nx, ny, h = grid.nx, grid.ny, grid.h
    gamma_sides = set(gamma_sides)
    walk = ([(i, 0) for i in range(nx)] + [(nx - 1, j) for j in range(1, ny)]
            + [(i, ny - 1) for i in range(nx - 2, -1, -1)]
            + [(0, j) for j in range(ny - 2, 0, -1)])

    def node_sides(i, j):
        return {s for s, on in (("bottom", j == 0), ("top", j == ny - 1),
                                ("left", i == 0), ("right", i == nx - 1)) if on}

    k = len(walk)
    mask = [bool(node_sides(*node) & gamma_sides) for node in walk]
    sigma = [0.0] * k
    for p in range(k):
        q = (p + 1) % k
        if node_sides(*walk[p]) & node_sides(*walk[q]) & gamma_sides:
            sigma[p] += 0.5 * h
            sigma[q] += 0.5 * h
    gamma = [p for p in range(k) if mask[p]]
    normals = []
    for p in gamma:
        i, j = walk[p]
        label = "bottom" if j == 0 else "top" if j == ny - 1 else "left" if i == 0 else "right"
        if label not in gamma_sides:
            label = sorted(node_sides(i, j) & gamma_sides)[0]
        normals.append(label)
    # runs of consecutive Γ nodes, walked from just after a gap
    start = next(p for p in range(k) if not mask[p - 1])
    runs, current = [], []
    for p in [(start + t) % k for t in range(k)]:
        if mask[p]:
            current.append(gamma.index(p))
        elif current:
            runs, current = runs + [current], []
    runs += [current] if current else []
    d1 = np.zeros((len(gamma), len(gamma)))
    for run in runs:
        for pos, row in enumerate(run):
            if pos == 0:
                d1[row, run[1]] += 1.0 / h
                d1[row, run[0]] -= 1.0 / h
            elif pos == len(run) - 1:
                d1[row, run[-1]] += 1.0 / h
                d1[row, run[-2]] -= 1.0 / h
            else:
                d1[row, run[pos + 1]] += 0.5 / h
                d1[row, run[pos - 1]] -= 0.5 / h
    return (np.array(walk), np.array(mask), np.array(sigma)[mask],
            np.array(normals), d1)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(3, 17), st.integers(3, 17), st.sampled_from([1 / 8, 0.1, 1 / 3]),
       st.lists(st.sampled_from(SIDES), min_size=1, max_size=3, unique=True))
def test_partition_matches_node_by_node_oracle(nx, ny, h, sides):
    grid = build_grid(Rect(-0.5, 0.25, -0.5 + (nx - 1) * h, 0.25 + (ny - 1) * h), h)
    assert (grid.nx, grid.ny) == (nx, ny)
    part = boundary_partition(grid, sides)
    nodes, mask, sigma, normal_names, d1 = _oracle_partition(grid, sides)
    names, normals = part.gamma_normals()
    assert np.array_equal(part.nodes, nodes)
    assert np.array_equal(part.gamma_mask, mask)
    assert np.array_equal(part.gamma_sigma, sigma)
    assert np.array_equal(names, normal_names)
    assert np.array_equal(normals, [SIDE_NORMAL[s] for s in normal_names])
    assert np.array_equal(part.gamma_nodes, nodes[mask])
    assert np.array_equal(part.gamma_points,
                          np.column_stack([grid.xs[nodes[mask, 0]], grid.ys[nodes[mask, 1]]]))
    assert np.array_equal(part.tangential_d1, d1)


def test_d1_of_arc_length_is_one_across_the_walk_start():
    # Γ = left then bottom runs through the walk start (0, 0): measured from
    # the top-left corner, arc length grows down the left side and on along
    # the bottom, and D1 must see one run with slope 1 at every node
    grid = build_grid(Rect(0, 0, 1.25, 1), 0.125)
    part = boundary_partition(grid, ["left", "bottom"])
    i, j = part.gamma_nodes.T
    arc = np.where(i == 0, grid.ny - 1 - j, grid.ny - 1 + i) * grid.h
    assert np.abs(part.tangential_d1 @ arc - 1.0).max() <= 1e-12
    assert part.m == grid.nx + grid.ny - 1


def test_four_side_d1_is_the_circulant_central_difference():
    grid = build_grid(Rect(0, 0, 1, 0.75), 0.25)
    part = boundary_partition(grid, SIDES)
    eye = np.eye(part.m)
    circulant = (np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)) * (0.5 / grid.h)
    assert part.m == part.n_boundary
    assert np.array_equal(part.tangential_d1, circulant)


def test_d1_never_differences_across_an_unmeasured_segment():
    # on a two-row grid the unmeasured left and right sides have no inner
    # node, so every boundary node is on Γ, yet Γ is two separate runs
    grid = build_grid(Rect(0, 0, 1, 0.25), 0.25)
    part = boundary_partition(grid, ["bottom", "top"])
    assert part.gamma_mask.all()
    bottom = part.gamma_nodes[:, 1] == 0
    assert not part.tangential_d1[np.ix_(bottom, ~bottom)].any()
    assert not part.tangential_d1[np.ix_(~bottom, bottom)].any()
    x = part.gamma_points[:, 0]
    assert np.abs(part.tangential_d1 @ x - np.where(bottom, 1.0, -1.0)).max() <= 1e-12
