import tracemalloc

import numpy as np
import pytest

from harmrec import (HarmonicPoly, Rect, SolverError, ValidationError,
                     boundary_partition, build_grid, resolve_config, sample_exact,
                     solve_dirichlet)
from harmrec import poisson
from harmrec.grid import _boundary_walk
from harmrec.poisson import (ScalarField, _dst_matrix, normal_stencil,
                             solve_interior)
from oracles import laplacian_residual


def boundary_values(fld, part):
    return fld.values[part.nodes[:, 1], part.nodes[:, 0]]


def normal_derivative(fld, part):
    ii, jj, coeffs = normal_stencil(part)
    return fld.values[jj, ii] @ coeffs


@pytest.fixture(params=["direct", "batch"])
def solve(request):
    """The two entry points of the one DST-I solve: ``solve_dirichlet`` on
    a batch of one field, and ``solve_interior`` on that field inside a batch
    of two."""
    if request.param == "direct":
        return lambda g, p, bv: ScalarField(grid=g, values=solve_dirichlet(g, [bv])[0])

    def batched(g, p, bv):
        u = np.zeros((2,) + g.shape)
        u[:, p.nodes[:, 1], p.nodes[:, 0]] = [bv, np.arange(p.n_boundary)]
        solve_interior(u)
        return ScalarField(grid=g, values=u[0])
    return batched


def test_quadratic_harmonic_reproduced_exactly(solve):
    # the 5-point stencil annihilates x^2 - y^2
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    exact = sample_exact(HarmonicPoly(coeffs=(0, 0, 1.0)), g)
    sol = solve(g, p, boundary_values(exact, p))
    assert np.abs(sol.values - exact.values).max() < 1e-10


def test_constant_boundary_gives_constant_field(solve):
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    p = boundary_partition(g, ["left"])
    sol = solve(g, p, np.ones(p.n_boundary))
    assert np.abs(sol.values - 1.0).max() < 1e-10


def test_convergence_is_second_order(solve):
    # boundary data from exp(x) sin(y): error ratio between h and h/2 near 4
    errs = []
    for h in (1 / 16, 1 / 32):
        g = build_grid(Rect(0, 0, 1, 1), h)
        p = boundary_partition(g, ["bottom"])
        xg, yg = g.meshgrid()
        exact = np.exp(xg) * np.sin(yg)
        bv = exact[p.nodes[:, 1], p.nodes[:, 0]]
        sol = solve(g, p, bv)
        errs.append(np.abs(sol.values - exact).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@pytest.mark.parametrize("entry", ["solve_interior", "solve_dirichlet"])
def test_batched_dst_solve_matches_sparse_reference(spsolve_dirichlet, entry):
    # 9 x 7 nodes: a swapped pair of eigenvalue axes cannot pass
    g = build_grid(Rect(0, 0, 1, 0.75), 1 / 8)
    p = boundary_partition(g, ["bottom"])
    rng = np.random.default_rng(11)
    batch = np.zeros((2, 3) + g.shape)
    batch[..., p.nodes[:, 1], p.nodes[:, 0]] = rng.uniform(-1, 1, (2, 3, p.n_boundary))
    ref = spsolve_dirichlet(batch)
    if entry == "solve_interior":
        solve_interior(batch)
    else:
        # walk-ordered rims, one batched solve that equals each single solve
        # to the bit
        rims = batch[..., p.nodes[:, 1], p.nodes[:, 0]].reshape(6, p.n_boundary)
        fields = solve_dirichlet(g, rims)
        assert fields.shape == (6,) + g.shape
        for fld, rim in zip(fields, rims):
            assert np.array_equal(fld, solve_dirichlet(g, [rim])[0])
        batch = fields.reshape(batch.shape)
    assert np.abs(batch - ref).max() <= 1e-12
    single, = solve_dirichlet(g, [boundary_values(ScalarField(g, ref[1, 2]), p)])
    assert np.abs(single - ref[1, 2]).max() <= 1e-12


@pytest.mark.parametrize("lead", [(), (5,), (2, 3), (32,)])
@pytest.mark.parametrize("ny, nx", [(3, 3), (3, 12), (14, 3), (9, 16), (21, 6), (65, 65)])
def test_dst_solve_any_shape_and_batch_matches_sparse_reference(spsolve_dirichlet, ny, nx, lead):
    # tall, wide and one-row interiors, with and without leading batch axes,
    # up to a sweep level's 32 fields of 65 x 65; each field of the batch
    # must be solved to the bit as if it were alone
    rng = np.random.default_rng(ny * 100 + nx)
    u = rng.uniform(-1, 1, lead + (ny, nx))
    u[..., 1:-1, 1:-1] = 0.0
    ref = spsolve_dirichlet(u)
    rim = u.copy()
    solve_interior(u)
    assert np.abs(u - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    assert np.array_equal(u[..., [0, -1], :], rim[..., [0, -1], :])
    assert np.array_equal(u[..., :, [0, -1]], rim[..., :, [0, -1]])
    for k in np.ndindex(lead):
        alone = rim[k].copy()
        solve_interior(alone)
        assert np.array_equal(alone, u[k])


def test_solve_interior_peak_memory():
    # a sweep level's batch: the rim load is transformed as a rank-4 product
    # and the inverse pair passes through the field's interior, so the only
    # full-size temporary is the one coefficient stack (1.19x here; 2.13x
    # with a second stack for the first product)
    u = np.random.default_rng(5).uniform(-1, 1, (32, 65, 65))
    solve_interior(u.copy())  # caches the DST tables
    tracemalloc.start()
    try:
        solve_interior(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * u[:, 1:-1, 1:-1].nbytes


class _PoisonedNumpy:
    """numpy as the solver module sees it, except that every ``np.empty``
    comes back filled with NaN, so an entry the solve leaves unwritten shows."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, *args, **kwargs):
        return np.full(shape, np.nan)


@pytest.mark.parametrize("grid", [
    build_grid(Rect(0, 0, 1, 1), 1 / 2),  # 3 x 3 nodes
    build_grid(Rect(0, 0, 1, 0.875), 1 / 8),  # odd x even: 9 x 8
    *(build_grid(cfg.rect, cfg["h"]) for cfg in (
        resolve_config(preset=name) for name in ("paper-sec5-one-side", "paper-sec5-two-sides"))),
], ids=["3x3", "9x8", "one-side", "two-sides"])
def test_dirichlet_stack_needs_no_zeroing(monkeypatch, grid):
    # the rim walk writes every rim node and solve_interior every interior
    # one, so the stack is allocated unset: with NaN for unset memory the
    # solve still passes its finite check and equals the zero-filled stack's,
    # bit for bit
    walk, _ = _boundary_walk(grid.nx, grid.ny)
    rims = np.random.default_rng(grid.nx * grid.ny).uniform(-1, 1, (3, len(walk)))
    zeroed = np.zeros((3,) + grid.shape)
    zeroed[:, walk[:, 1], walk[:, 0]] = rims
    solve_interior(zeroed)
    monkeypatch.setattr(poisson, "np", _PoisonedNumpy())
    got = solve_dirichlet(grid, rims)
    assert np.isfinite(got).all()
    assert got.tobytes() == zeroed.tobytes()
    # a caller's stack is overwritten the same way, whatever it held
    out = np.full((3,) + grid.shape, np.nan)
    assert solve_dirichlet(grid, rims, out=out) is out
    assert np.isfinite(out).all()
    assert out.tobytes() == zeroed.tobytes()


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("make_out", [
    lambda shape: np.empty((2,) + shape[1:]),
    lambda shape: np.empty(shape[:1] + shape[1:][::-1]),
    lambda shape: np.empty(shape, dtype=np.float32),
    lambda shape: np.empty(shape, dtype=complex),
    lambda shape: np.empty(shape[::-1]).T,
    lambda shape: np.empty(shape[:2] + (2 * shape[2],))[..., ::2],
    lambda shape: _read_only(np.empty(shape)),
    lambda shape: np.empty(shape).tolist(),
], ids=["fields", "transposed-grid", "float32", "complex", "fortran", "strided",
        "read-only", "list"])
def test_dirichlet_out_must_be_a_writable_float64_stack(make_out):
    grid = build_grid(Rect(0, 0, 1, 0.875), 1 / 8)  # 9 x 8
    walk, _ = _boundary_walk(grid.nx, grid.ny)
    rims = np.ones((3, len(walk)))
    out = make_out((3,) + grid.shape)
    with pytest.raises(ValidationError, match="out must be"):
        solve_dirichlet(grid, rims, out=out)


def _dst_oracle(n):
    """The DST-I matrix as one expression, index-product temporaries and all."""
    k = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * n + 2)) / (n + 1))


@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 255, 1000])
def test_dst_matrix_matches_one_line_oracle(n):
    assert np.array_equal(_dst_matrix(n), _dst_oracle(n))


def test_dst_matrix_peaks_at_the_matrix_it_returns():
    _dst_matrix.cache_clear()
    tracemalloc.start()
    try:
        s = _dst_matrix(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _dst_matrix.cache_clear()
    assert peak <= 1.1 * s.nbytes  # 32 MB
    assert np.array_equal(s, _dst_oracle(2000))


def test_laplacian_residual_examples():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    p = boundary_partition(g, ["bottom"])
    exact = sample_exact(HarmonicPoly(coeffs=(0, 0, 1.0)), g)
    assert laplacian_residual(exact) < 1e-12
    sol = ScalarField(grid=g, values=solve_dirichlet(g, [boundary_values(exact, p)])[0])
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


def test_discrete_maximum_principle(solve):
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    rng = np.random.default_rng(7)
    bv = rng.uniform(-1.0, 2.0, p.n_boundary)
    sol = solve(g, p, bv)
    assert sol.values.max() <= bv.max() + 1e-8
    assert sol.values.min() >= bv.min() - 1e-8


def test_solve_is_linear(solve):
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    rng = np.random.default_rng(3)
    a = rng.normal(size=p.n_boundary)
    b = rng.normal(size=p.n_boundary)
    sa = solve(g, p, a).values
    sb = solve(g, p, b).values
    sab = solve(g, p, 2.0 * a - 0.5 * b).values
    assert np.abs(sab - (2.0 * sa - 0.5 * sb)).max() < 1e-7


def test_mirror_symmetric_data_gives_mirror_symmetric_field():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    x = g.rect.x0 + p.nodes[:, 0] * g.h
    y = g.rect.y0 + p.nodes[:, 1] * g.h
    bv = np.sin(np.pi * x) * (1.0 + y)  # symmetric under x -> 1-x
    sol, = solve_dirichlet(g, [bv])
    assert np.abs(sol - sol[:, ::-1]).max() < 1e-10


def test_field_validation():
    g = build_grid(Rect(0, 0, 1, 1), 0.5)
    with pytest.raises(ValidationError):
        ScalarField(grid=g, values=np.zeros((2, 2)))
    with pytest.raises(SolverError):
        ScalarField(grid=g, values=np.full(g.shape, np.nan))
