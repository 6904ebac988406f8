import numpy as np
import pytest

from harmrec import Rect, ValidationError, boundary_partition, build_grid


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


def test_quadrature_weights_sum_to_perimeter():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 32)
    p = boundary_partition(g, ["left"])
    assert abs(p.sigma.sum() - 4.0) < 1e-12
    # constant quadrature: sigma-weighted sum of c over the boundary is 4c
    c = 2.7
    assert abs((p.sigma * c).sum() - 4.0 * c) < 1e-12


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


def test_gamma_runs_wrap_around_walk_start():
    g = build_grid(Rect(0, 0, 1, 1), 0.25)
    p = boundary_partition(g, ["left", "bottom"])
    runs = p.gamma_runs()
    assert len(runs) == 1
    assert len(runs[0]) == p.m
    # run order chains through the shared corner: consecutive gamma nodes
    # are boundary-adjacent
    nodes = p.gamma_nodes[runs[0]]
    steps = np.abs(np.diff(nodes, axis=0)).sum(axis=1)
    assert (steps == 1).all()
