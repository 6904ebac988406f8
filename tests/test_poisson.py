import numpy as np
import pytest

from harmrec import (HarmonicPoly, Rect, SolverError, ValidationError,
                     boundary_partition, build_grid, laplacian_residual,
                     sample_exact, solve_dirichlet)
from harmrec.poisson import ScalarField, cg_dirichlet, normal_stencil, solve_interior


def boundary_values(fld, part):
    return fld.values[part.nodes[:, 1], part.nodes[:, 0]]


def normal_derivative(fld, part):
    ii, jj, coeffs = normal_stencil(part)
    return fld.values[jj, ii] @ coeffs


@pytest.fixture(params=["cg", "direct"])
def method(request):
    return request.param


def test_quadratic_harmonic_reproduced_exactly(method):
    # the 5-point stencil annihilates x^2 - y^2
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    exact = sample_exact(HarmonicPoly(coeffs=(0, 0, 1.0)), g)
    sol = solve_dirichlet(g, p, boundary_values(exact, p), tol=1e-12, method=method)
    assert np.abs(sol.values - exact.values).max() < 1e-10


def test_constant_boundary_gives_constant_field(method):
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    p = boundary_partition(g, ["left"])
    sol = solve_dirichlet(g, p, np.ones(p.n_boundary), method=method)
    assert np.abs(sol.values - 1.0).max() < 1e-10


def test_convergence_is_second_order(method):
    # boundary data from exp(x) sin(y): error ratio between h and h/2 near 4
    errs = []
    for h in (1 / 16, 1 / 32):
        g = build_grid(Rect(0, 0, 1, 1), h)
        p = boundary_partition(g, ["bottom"])
        xg, yg = g.meshgrid()
        exact = np.exp(xg) * np.sin(yg)
        bv = exact[p.nodes[:, 1], p.nodes[:, 0]]
        sol = solve_dirichlet(g, p, bv, tol=1e-12, method=method)
        errs.append(np.abs(sol.values - exact).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_batched_dst_solve_matches_sparse_reference(spsolve_dirichlet):
    # 9 x 7 nodes: a swapped pair of eigenvalue axes cannot pass
    g = build_grid(Rect(0, 0, 1, 0.75), 1 / 8)
    p = boundary_partition(g, ["bottom"])
    rng = np.random.default_rng(11)
    batch = np.zeros((2, 3) + g.shape)
    batch[..., p.nodes[:, 1], p.nodes[:, 0]] = rng.uniform(-1, 1, (2, 3, p.n_boundary))
    ref = spsolve_dirichlet(batch)
    solve_interior(batch)
    assert np.abs(batch - ref).max() <= 1e-12
    single = solve_dirichlet(g, p, boundary_values(ScalarField(g, ref[1, 2]), p))
    assert np.abs(single.values - ref[1, 2]).max() <= 1e-12


def test_laplacian_residual_examples():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    p = boundary_partition(g, ["bottom"])
    exact = sample_exact(HarmonicPoly(coeffs=(0, 0, 1.0)), g)
    assert laplacian_residual(exact) < 1e-12
    sol = solve_dirichlet(g, p, boundary_values(exact, p), tol=1e-10)
    assert laplacian_residual(sol) <= 1e-10
    xg, _ = g.meshgrid()
    quartic = ScalarField(grid=g, values=xg**4)
    assert laplacian_residual(quartic) > 0


def test_laplacian_residual_needs_interior():
    g = build_grid(Rect(0, 0, 1, 1), 0.5)
    f = ScalarField(grid=g, values=np.zeros(g.shape))
    assert laplacian_residual(f) == 0.0
    tiny = build_grid(Rect(0, 0, 1, 1), 1.0)
    with pytest.raises(ValidationError):
        laplacian_residual(ScalarField(grid=tiny, values=np.zeros(tiny.shape)))


def test_normal_derivative_linear_field_exact():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    p = boundary_partition(g, ["bottom"])
    _, yg = g.meshgrid()
    fld = ScalarField(grid=g, values=yg.copy())
    nd = normal_derivative(fld, p)
    assert np.abs(nd + 1.0).max() < 1e-13  # outward normal (0,-1)


def test_normal_derivative_constant_is_zero():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    for sides in (["top"], ["left"], ["right"], ["bottom", "right"]):
        p = boundary_partition(g, sides)
        fld = ScalarField(grid=g, values=np.full(g.shape, 3.3))
        assert np.abs(normal_derivative(fld, p)).max() < 1e-12


def test_normal_derivative_order_two_converges_quadratically():
    # bottom-side derivative of exp(4x) cos(4(y+0.2)) is 4 exp(4x) sin(0.8)
    errs = {}
    for h in (1 / 32, 1 / 64):
        g = build_grid(Rect(0, 0, 1, 1), h)
        p = boundary_partition(g, ["bottom"])
        xg, yg = g.meshgrid()
        fld = ScalarField(grid=g, values=np.exp(4 * xg) * np.cos(4 * (yg + 0.2)))
        x = p.gamma_points[:, 0]
        expected = 4.0 * np.exp(4 * x) * np.sin(0.8)
        errs[h] = np.abs(normal_derivative(fld, p) - expected).max()
    assert 3.0 <= errs[1 / 32] / errs[1 / 64] <= 5.0


def test_discrete_maximum_principle(method):
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    rng = np.random.default_rng(7)
    bv = rng.uniform(-1.0, 2.0, p.n_boundary)
    sol = solve_dirichlet(g, p, bv, tol=1e-11, method=method)
    assert sol.values.max() <= bv.max() + 1e-8
    assert sol.values.min() >= bv.min() - 1e-8


def test_solve_is_linear(method):
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    rng = np.random.default_rng(3)
    a = rng.normal(size=p.n_boundary)
    b = rng.normal(size=p.n_boundary)
    sa = solve_dirichlet(g, p, a, tol=1e-12, method=method).values
    sb = solve_dirichlet(g, p, b, tol=1e-12, method=method).values
    sab = solve_dirichlet(g, p, 2.0 * a - 0.5 * b, tol=1e-12, method=method).values
    assert np.abs(sab - (2.0 * sa - 0.5 * sb)).max() < 1e-7


def test_mirror_symmetric_data_gives_mirror_symmetric_field():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    x = g.rect.x0 + p.nodes[:, 0] * g.h
    y = g.rect.y0 + p.nodes[:, 1] * g.h
    bv = np.sin(np.pi * x) * (1.0 + y)  # symmetric under x -> 1-x
    sol = solve_dirichlet(g, p, bv, tol=1e-12).values
    assert np.abs(sol - sol[:, ::-1]).max() < 1e-10


def test_cg_reports_iterations_and_residual():
    xg, yg = build_grid(Rect(0, 0, 1, 1), 1 / 16).meshgrid()
    u = np.exp(xg) * np.sin(yg)
    u[1:-1, 1:-1] = 0.0  # rim holds the data
    iters, res = cg_dirichlet(u.copy(), 1e-10, max_iter=2)
    assert iters == 2 and res > 1e-10
    iters, res = cg_dirichlet(u.copy(), 1e-10, max_iter=5000)
    assert res <= 1e-10 * max(1.0, np.abs(u).max()) * 3


def test_nonconvergence_raises_with_residual(monkeypatch):
    import harmrec.poisson as poisson

    monkeypatch.setattr(poisson, "cg_dirichlet", lambda *a, **k: (17, 1.0))
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    p = boundary_partition(g, ["bottom"])
    with pytest.raises(SolverError) as exc:
        poisson.solve_dirichlet(g, p, np.ones(p.n_boundary), method="cg")
    assert exc.value.achieved_residual == 1.0


def test_field_validation():
    g = build_grid(Rect(0, 0, 1, 1), 0.5)
    with pytest.raises(ValidationError):
        ScalarField(grid=g, values=np.zeros((2, 2)))
    with pytest.raises(SolverError):
        ScalarField(grid=g, values=np.full(g.shape, np.nan))
