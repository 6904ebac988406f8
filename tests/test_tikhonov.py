from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import (CauchyData, Constant, DiscreteSystem, ExpCos, NoisyBatch, Rect,
                     SolverError, ValidationError, add_noise, assemble_system,
                     boundary_partition, build_grid, draw_noise, reconstruct,
                     reconstruct_field, run_sweep, trace_cauchy,
                     validate_config)
from harmrec.basis import build_basis, compute_base_solutions
from harmrec.grid import SIDES, graph_norm
from harmrec.tikhonov import _penalty_factor, factor
from oracles import clean_batch, qr_fit, svd_filtered_fit


def _fixed(alpha):
    return validate_config({"alpha_rule": "fixed", "alpha_fixed": alpha})


def test_alpha_a_priori():
    a = validate_config({"alpha_rule": "a_priori", "alpha_c": 1.0}).alpha(0.01, 1 / 64)
    assert abs(a - (1e-4 + (1 / 64) ** 2)) < 1e-18
    assert abs(a - 3.4414e-4) < 1e-8
    # limit: alpha -> 0 as both inputs shrink
    for h in (1e-2, 1e-4, 1e-6):
        assert validate_config({}).alpha(0.0, h) == h * h
    assert validate_config({}).alpha(0.0, 1e-6) < 1e-11


def test_alpha_fixed_and_errors():
    assert _fixed(1e-6).alpha(0.5, 0.1) == 1e-6
    with pytest.raises(ValidationError):
        _fixed(None)
    with pytest.raises(ValidationError):
        _fixed(0.0)
    with pytest.raises(ValidationError):
        validate_config({}).alpha(-1.0, 0.1)
    with pytest.raises(ValidationError):
        validate_config({"alpha_rule": "bayes"})
    # a positive alpha_c that passes validation can still underflow to 0
    with pytest.raises(ValidationError, match="resolved alpha must be positive"):
        validate_config({"alpha_c": 5e-324}).alpha(0.01, 1 / 64)


def test_config_weight_validation():
    with pytest.raises(ValidationError):
        validate_config({"w_f": 0.0, "w_g": 0.0})
    with pytest.raises(ValidationError):
        validate_config({"w_f": -1.0, "w_g": 1.0})
    assert validate_config({"w_f": 0.0, "w_g": 2.0}).data_weights == (0.0, 2.0)


def _scalar_system():
    return DiscreteSystem(A=np.array([[1.0]]), B=np.array([[0.0]]),
                          sigma=np.array([1.0]), D1=np.array([[0.0]]), h=1.0)


def _scalar_data(f, g):
    return CauchyData(points=np.zeros((1, 2)), f=np.array([float(f)]),
                      g=np.array([float(g)]))


def test_scalar_ridge_closed_form():
    for alpha in (1e-3, 1e-1, 1.0):
        cfg = _fixed(alpha)
        b = reconstruct(_scalar_system(), clean_batch(_scalar_data(1.0, 0.0)), cfg).w[0]
        assert abs(b[0] - 1.0 / (1.0 + alpha)) < 1e-12


def test_zero_data_gives_zero_coefficients():
    cfg = _fixed(1e-4)
    b = reconstruct(_scalar_system(), clean_batch(_scalar_data(0.0, 0.0)), cfg).w[0]
    assert abs(b[0]) < 1e-12


def _system(grid, sides):
    part = boundary_partition(grid, sides)
    return part, assemble_system(part)


def _traces(part):
    """The traces V of the hats around the partition's grid."""
    return compute_base_solutions(build_basis(part.grid), part)


def _pipeline_pieces(h=1 / 8):
    grid = build_grid(Rect(0, 0, 1, 1), h)
    part, sys = _system(grid, ["bottom"])
    return grid, part, sys


def _dense_penalty_factor(sys):
    """(K, K) sqrt(h) C^(1/2) for C = I + D1^T D1 + D2^T D2, D1 and D2 the
    circulant central differences, from an eigendecomposition of dense C."""
    k, h = sys.A.shape[1], sys.h
    shift = np.roll(np.eye(k), 1, axis=1)
    d1 = (shift - shift.T) / (2 * h)
    d2 = (shift - 2 * np.eye(k) + shift.T) / h**2
    lam, vec = np.linalg.eigh(np.eye(k) + d1.T @ d1 + d2.T @ d2)
    return np.sqrt(h) * (vec * np.sqrt(lam)) @ vec.T


def test_noiseless_constant_reconstruction():
    grid, part, sys = _pipeline_pieces()
    data = trace_cauchy(Constant(1.0), part)
    alpha = 1e-6
    cfg = _fixed(alpha)
    result = reconstruct(sys, clean_batch(data), cfg)
    # cost at the all-ones comparison vector bounds the optimum:
    # penalty of the constant-one trace is the perimeter (value term only)
    assert result.residual_f[0]**2 + result.residual_g[0]**2 <= 4.0 * alpha * 1.01
    # far from Γ the constant is only conditionally determined; the
    # deviation there reflects the operator's ~1e16 conditioning, not alpha
    assert np.abs(reconstruct_field(result.w, sys) - 1.0).max() < 5e-3
    # near-zero regularization tightens toward the direct solve limit
    tight = reconstruct_field(reconstruct(sys, clean_batch(data), _fixed(1e-12)).w, sys)
    assert np.abs(tight - 1.0).max() < 1e-3
    # close to the measured side the fit is sharp
    assert np.abs(tight[0, :3, :] - 1.0).max() < 1e-6


def test_first_order_optimality():
    grid, part, sys = _pipeline_pieces()
    data = trace_cauchy(Constant(2.0), part)
    alpha = 1e-5
    cfg = _fixed(alpha)
    w = reconstruct(sys, clean_batch(data), cfg).w[0]
    s = sys.sigma
    rf = sys.A @ w - data.f
    rg = sys.B @ w - data.g
    d1 = sys.D1
    ell = _dense_penalty_factor(sys)
    grad = (2 * sys.A.T @ (s * rf) + 2 * (d1 @ sys.A).T @ (s * (d1 @ rf))
            + 2 * sys.B.T @ (s * rg) + 2 * alpha * ell.T @ (ell @ w))
    assert np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(w))


def test_reconstruct_field_unit_vector_and_ones(base_solution_fields):
    grid = build_grid(Rect(0, 0, 1, 1), 0.125)
    part, sys = _system(grid, ["bottom"])
    e0, = reconstruct_field(_traces(part)[:, :1].T, sys)
    # the domain is the hats' grid less one layer a side
    assert np.abs(e0 - base_solution_fields(build_basis(grid))[
        0, 1:-1, 1:-1]).max() <= 1e-12
    ones = reconstruct_field(np.ones((1, part.n_boundary)), sys)
    assert np.abs(ones - 1.0).max() < 1e-12


def test_reconstruct_field_matches_sparse_reference(base_solution_fields):
    # a batch of random combinations on a non-square grid, rebuilt from the
    # rim traces on the grid alone, against the base solutions solved on the
    # hats' grid and cropped
    grid = build_grid(Rect(0, 0, 1, 0.75), 1 / 8)
    part, sys = _system(grid, ["bottom", "left"])
    hats = build_basis(grid)
    b = np.random.default_rng(11).normal(size=(3, hats.n_boundary))
    ref = np.tensordot(b, base_solution_fields(hats), axes=1)[:, 1:-1, 1:-1]
    assert ref.shape[1:] == grid.shape
    traces = _traces(part)
    for fld, r in zip(reconstruct_field(b @ traces.T, sys), ref):
        assert np.abs(fld - r).max() <= 1e-12 * np.abs(r).max()
    single, = reconstruct_field([traces @ b[1]], sys)
    assert np.abs(single - ref[1]).max() <= 1e-12 * np.abs(ref[1]).max()


def test_reconstruct_field_validation():
    grid, part, sys = _pipeline_pieces()
    k = part.n_boundary
    with pytest.raises(ValidationError, match="rim values"):
        reconstruct_field(np.zeros(3), sys)
    with pytest.raises(ValidationError, match="rim values"):
        reconstruct_field(np.zeros((2, 2, k)), sys)
    # one field is a batch of one: (K,) traces are rejected, naming (k, K)
    with pytest.raises(ValidationError, match=rf"expected \(k, {k}\) rim values"):
        reconstruct_field(np.zeros(k), sys)
    by_hand = DiscreteSystem(A=sys.A, B=sys.B, sigma=sys.sigma, D1=sys.D1, h=sys.h)
    with pytest.raises(ValidationError, match="without a grid"):
        reconstruct_field(np.zeros((1, k)), by_hand)


_SHAPES = {"A": (2, 3), "B": (2, 3), "sigma": (2,), "D1": (2, 2)}


@pytest.mark.parametrize("shapes", [
    {"A": (2, 3), "B": (1, 3)},  # B has another row count
    {"B": (2, 4)},  # B acts on more traces than A
    {"A": (2, 0), "B": (2, 0)},  # no traces
    {"sigma": (3,)},
    {"D1": (2, 3)},
    {"A": (3,)},
    {"A": (0, 3), "B": (0, 3), "sigma": (0,), "D1": (0, 0)},
])
def test_system_shapes_checked(shapes):
    # A, B (m x K), sigma (m,) and D1 (m x m), none empty; a
    # mismatch is a validation error, not numpy's at the first product
    DiscreteSystem(**{name: np.ones(shape) for name, shape in _SHAPES.items()}, h=0.1)
    with pytest.raises(ValidationError, match="shape"):
        DiscreteSystem(**{name: np.ones(shape) for name, shape in {**_SHAPES, **shapes}.items()},
                       h=0.1)


def test_reconstruct_field_lives_on_the_assembled_grid():
    # a 9 x 7 node grid: its transpose has as many rim nodes at the same
    # spacing, so only the grid the system was assembled on can tell them apart
    grid = build_grid(Rect(0, 0, 1, 0.75), 1 / 8)
    part, sys = _system(grid, ["bottom"])
    assert sys.grid == grid
    fld = reconstruct_field(np.ones((1, part.n_boundary)), sys)
    assert fld.shape == (1,) + grid.shape == (1, 7, 9)
    assert np.abs(fld - 1.0).max() < 1e-12


def test_a_system_grid_cannot_be_swapped():
    # the transposed 7 x 9 grid has the 9 x 7 grid's rim count and spacing,
    # so a system that took a grid from its caller would rebuild a (9, 7)
    # field from (7, 9) data: only assemble_system sets the grid
    grid = build_grid(Rect(0, 0, 1, 0.75), 1 / 8)
    part, sys = _system(grid, ["bottom"])
    transposed = build_grid(Rect(0, 0, 0.75, 1), 1 / 8)
    assert transposed.shape == (9, 7)
    with pytest.raises(ValueError, match="init=False"):
        reconstruct_field(np.ones((1, part.n_boundary)), replace(sys, grid=transposed))
    with pytest.raises(TypeError):
        DiscreteSystem(A=sys.A, B=sys.B, sigma=sys.sigma, D1=sys.D1, h=sys.h,
                       grid=transposed)
    with pytest.raises(FrozenInstanceError):
        sys.grid = transposed


def test_residuals_monotone_in_alpha():
    grid, part, sys = _pipeline_pieces()
    data = trace_cauchy(Constant(1.0), part)
    noisy = NoisyBatch(0.05, (data.f + 0.05 * np.sin(7 * data.points[:, 0]))[None],
                       data.g[None])
    prev_res, prev_reg = -1.0, np.inf
    for alpha in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        cfg = _fixed(alpha)
        r = reconstruct(sys, noisy, cfg)
        res = r.residual_f[0]**2 + r.residual_g[0]**2
        assert res >= prev_res - 1e-12
        assert r.reg_norm[0] <= prev_reg + 1e-9
        prev_res, prev_reg = res, r.reg_norm[0]


def test_residual_decay_with_grid_refinement():
    # noiseless data, alpha = c*(eps^2 + h^2) with eps = 0: residuals shrink
    totals = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        grid, part, sys = _pipeline_pieces(h=h)
        data = trace_cauchy(ExpCos(2.0, 0.1), part)
        cfg = validate_config({"alpha_rule": "a_priori", "alpha_c": 1.0})
        r = reconstruct(sys, clean_batch(data), cfg)
        totals.append(r.residual_f[0] + r.residual_g[0])
    assert totals[0] > totals[1] > totals[2]


def test_penalty_factor_consistency():
    # the fit reads L as its K eigenvalues on the walk's Fourier modes; they
    # are those of the dense factor, and at least sqrt(h), so L is invertible
    _, part, sys = _pipeline_pieces()
    root = _penalty_factor(sys)
    assert root.shape == (part.n_boundary,)
    dense = np.linalg.eigvalsh(_dense_penalty_factor(sys))
    assert np.abs(np.sort(root) - dense).max() <= 1e-12 * dense.max()
    assert root.min() == pytest.approx(np.sqrt(sys.h), rel=1e-15)


def test_data_length_mismatch_rejected():
    grid, part, sys = _pipeline_pieces()
    bad = CauchyData(points=np.zeros((3, 2)), f=np.zeros(3), g=np.zeros(3))
    with pytest.raises(ValidationError):
        reconstruct(sys, clean_batch(bad), _fixed(1e-6))


def _noisy_batch(part, level=0.05, seeds=(1, 2, 3)):
    clean = trace_cauchy(ExpCos(2.0, 0.1), part)
    return add_noise(clean, level, draw_noise(list(seeds), part.m))


def _rel(a, b):
    return np.linalg.norm(np.asarray(a) - b) / max(np.linalg.norm(b), 1e-300)


def test_batched_fit_matches_single_fits():
    grid, part, sys = _pipeline_pieces()
    noisy = _noisy_batch(part)
    cfg = validate_config({})
    batch = reconstruct(sys, noisy, cfg)
    fields = reconstruct_field(batch.w, sys)
    k = len(noisy.f)
    assert batch.w.shape == (k, part.n_boundary)
    assert fields.shape == (k,) + grid.shape and fields.flags.writeable
    for row in range(k):
        # every row of the batch is the single fit; the filtered solve's
        # product rounds by the number of columns, so w agrees to rounding,
        # and each row's field is the single solve of its w, bit for bit
        single = reconstruct(sys, noisy._replace(f=noisy.f[row:row + 1],
                                                 g=noisy.g[row:row + 1]), cfg)
        for name in ("w", "residual_f", "residual_g", "reg_norm"):
            assert getattr(batch, name).shape[0] == k
            assert _rel(getattr(batch, name)[row], getattr(single, name)[0]) <= 1e-12, name
        assert _rel(fields[row], reconstruct_field(single.w, sys)[0]) <= 1e-12
        assert np.array_equal(fields[row], reconstruct_field(batch.w[row:row + 1], sys)[0])
        assert batch.alpha_used == single.alpha_used
        assert batch.condition_estimate == single.condition_estimate
    # distinct data give distinct fits: the columns are not mixed up
    assert _rel(batch.w[0], batch.w[1]) > 1e-6


def test_batched_norms_match_discrete_norms():
    grid, part, sys = _pipeline_pieces()
    noisy = _noisy_batch(part)
    ell = _dense_penalty_factor(sys)
    r = reconstruct(sys, noisy, validate_config({}))
    for k, (f, g) in enumerate(zip(noisy.f, noisy.g)):
        w = r.w[k]
        res_f = graph_norm(part.gamma_sigma, part.tangential_d1, sys.A @ w - f)
        r_g = sys.B @ w - g
        res_g = np.sqrt(np.sum(part.gamma_sigma * r_g**2))
        reg = np.sqrt(w @ (ell.T @ (ell @ w)))
        assert _rel(r.residual_f[k], res_f) <= 1e-12
        assert _rel(r.residual_g[k], res_g) <= 1e-12
        assert _rel(r.reg_norm[k], reg) <= 1e-12


def test_batch_needs_one_noise_level():
    # a batch carries one level, so a mixed batch cannot be built: its rows
    # share the filter of alpha at that level.  An empty batch, or data of
    # another length than the system's, is rejected.
    grid, part, sys = _pipeline_pieces()
    cfg = validate_config({})
    for level in (0.05, 0.01):
        batch = _noisy_batch(part, level=level)
        assert reconstruct(sys, batch, cfg).alpha_used == cfg.alpha(level, sys.h)
    empty = NoisyBatch(0.05, np.zeros((0, sys.m)), np.zeros((0, sys.m)))
    with pytest.raises(ValidationError, match="k > 0"):
        reconstruct(sys, empty, cfg)
    f = np.zeros((2, sys.m))
    for bad in (NoisyBatch(0.05, f[:, 1:], f[:, 1:]), NoisyBatch(0.05, f, f[:1]),
                NoisyBatch(0.05, f[0], f[0])):
        with pytest.raises(ValidationError, match=f"\\(k, {sys.m}\\)"):
            reconstruct(sys, bad, cfg)


@pytest.mark.parametrize("sides", [["bottom"], ["bottom", "top"]])
@pytest.mark.parametrize("weights, channel", [((0.0, 1.0), "f"), ((1.0, 0.0), "g")])
def test_zero_weighted_channel_cannot_move_the_fit(sides, weights, channel):
    # a zero weight zeroes its channel's rows, so its data enter the fit only
    # through exact products with 0
    part, sys = _system(build_grid(Rect(0, 0, 1, 1), 1 / 8), sides)
    noisy = _noisy_batch(part)
    rng = np.random.default_rng(5)
    junk = [rng.normal(size=sys.m) * 1e6, np.full(sys.m, -1e100),
            rng.uniform(-1.0, 1.0, size=sys.m) * 1e-300]
    moved = noisy._replace(**{channel: np.array(junk)})
    cfg = validate_config({"w_f": weights[0], "w_g": weights[1]})
    a, b = reconstruct(sys, noisy, cfg), reconstruct(sys, moved, cfg)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(reconstruct_field(a.w, sys), reconstruct_field(b.w, sys))
    assert np.array_equal(a.reg_norm, b.reg_norm)


def test_sweep_factors_once_and_filters_once_per_noise_level(monkeypatch):
    import harmrec.tikhonov as tik

    factorisations, columns = [], []
    factor_, solve = tik.factor, tik.Spectrum.solve

    def counting_factor(sys, weights):
        factorisations.append(weights)
        return factor_(sys, weights)

    def counting_solve(self, f, g, alpha):
        columns.append(f.shape[1])
        return solve(self, f, g, alpha)

    built, eigh = [], np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        built.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(tik, "factor", counting_factor)
    monkeypatch.setattr(tik.Spectrum, "solve", counting_solve)
    monkeypatch.setattr(tik.np.linalg, "eigh", counting_eigh)
    cfg = validate_config({"h": 1 / 16,
                           "eps_levels": [1e-1, 1e-2, 1e-3],
                           "seeds": [1, 2, 3, 4]})
    run_sweep(cfg)
    # every level looks the factorisation up; its one eigh runs once
    assert len(factorisations) == 3 and len(built) == 1
    assert columns == [4, 4, 4]


def _stacked_lstsq(sys, traces, f, g, weights, alpha):
    """Reference fit in coefficient space: SVD least squares of the stacked
    matrix [L_f A V; L_g B V; sqrt(alpha) L V] b = [d; 0], V the hats'
    traces, all-zero columns pinned to 0.  Returns the (k, n) minimum-norm
    minimizers and the condition number of the singular values least squares
    kept."""
    w_f, w_g = weights
    s12 = np.sqrt(sys.sigma)[:, None]
    a_mat, b_mat = sys.A @ traces, sys.B @ traces
    blocks, rhs = [], []
    if w_f > 0:
        wf = np.sqrt(w_f) * s12
        blocks += [wf * a_mat, wf * (sys.D1 @ a_mat)]
        rhs += [wf * f, wf * (sys.D1 @ f)]
    if w_g > 0:
        blocks.append(np.sqrt(w_g) * s12 * b_mat)
        rhs.append(np.sqrt(w_g) * s12 * g)
    # F = L V, L applied through the fit's own eigenvalues (checked against
    # the dense factor in test_penalty_factor_consistency)
    root = _penalty_factor(sys)
    k = len(root)
    f_mat = np.fft.irfft(root[:k // 2 + 1, None] * np.fft.rfft(traces, axis=0), n=k, axis=0)
    blocks.append(np.sqrt(alpha) * f_mat)
    rhs.append(np.zeros((k, f.shape[1])))
    m_stack = np.vstack(blocks)
    visible = np.abs(m_stack).max(axis=0) > 0
    b = np.zeros((f.shape[1], traces.shape[1]))
    b_vis, _, rank, svals = np.linalg.lstsq(m_stack[:, visible], np.vstack(rhs), rcond=None)
    b[:, visible] = b_vis.T
    return b, svals[0] / svals[rank - 1]


def _check_against_oracle(sys, traces, weights, alpha, rng, min_norm_coefficients):
    f, g = rng.normal(size=(2, sys.m, 3))
    w, _ = factor(sys, weights).solve(f, g, alpha)
    b = min_norm_coefficients(traces, w.T).T
    ref, kappa = _stacked_lstsq(sys, traces, f, g, weights, alpha)
    # least squares moves b by up to about eps * kappa^2 under rounding,
    # whichever method solves it
    tol = max(1e-12, 1e-15 * kappa**2)
    assert np.abs(b - ref).max() <= tol * np.abs(ref).max()
    u_ref = reconstruct_field(ref @ traces.T, sys)
    u = reconstruct_field(w, sys)
    assert np.abs(u - u_ref).max() <= tol * np.abs(u_ref).max()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(k=st.integers(4, 8),
       shape=st.tuples(st.integers(2, 8), st.integers(2, 8)),
       sides=st.lists(st.sampled_from(SIDES), min_size=1, max_size=3, unique=True),
       weights=st.sampled_from([(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 2.0)]),
       log_alpha=st.floats(-8.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_filtered_fit_matches_stacked_lstsq(min_norm_coefficients, k, shape, sides, weights,
                                            log_alpha, seed):
    h = 1.0 / k
    part, sys = _system(build_grid(Rect(0.0, 0.0, shape[0] * h, shape[1] * h), h), sides)
    # the K traces are independent, so b = V+ w is the oracle's minimizer
    traces = _traces(part)
    assert np.linalg.matrix_rank(traces) == part.n_boundary
    _check_against_oracle(sys, traces, weights, 10.0**log_alpha, np.random.default_rng(seed),
                          min_norm_coefficients)


# (rectangle, h, measured sides) of a data block M with fewer rows than
# columns (2m = 18 < K = 32, the dual form), more (2m = 50 > K = 32, the
# primal form), and as many (2m = K = 36)
_GRAM_FORMS = {
    "dual": (Rect(0, 0, 1, 1), 1 / 8, ["bottom"]),
    "primal": (Rect(0, 0, 1, 1), 1 / 8, ["left", "bottom", "right"]),
    "square": (Rect(0, 0, 1, 1.25), 1 / 8, ["bottom", "top"]),
}


@pytest.mark.parametrize("form", sorted(_GRAM_FORMS))
@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 2.0), (0.0, 1.0), (1.0, 0.0)])
def test_gram_fit_matches_the_svd_filter_factors(form, weights):
    # the eigendecomposition of the smaller Gram matrix, refined, gives the
    # SVD's fit to the SVD's own accuracy, C eps s_1 / sqrt(alpha) relative,
    # for alpha / s_1^2 from 1 down to 1e-13; the condition estimate, read
    # off the eigenvalues, to C eps s_1^2 / alpha.  Unrefined, the fit is
    # off by about eps s_1^2 / alpha.
    rect, h, sides = _GRAM_FORMS[form]
    part, sys = _system(build_grid(rect, h), sides)
    two_m, k = 2 * sys.m, part.n_boundary
    assert {"dual": two_m < k, "primal": two_m > k, "square": two_m == k}[form]
    f, g = np.random.default_rng(11).normal(size=(2, sys.m, 3))
    fit = factor(sys, weights)
    # one construction of M, kept per weights: M0 = weighted_data(A, B) and
    # M = (L^-1 M0^T)^T, bit for bit
    m0 = fit.weighted_data(sys.A, sys.B)
    assert np.array_equal(fit.penalty_inverse(m0.T).T, fit.block)
    assert factor(sys, weights) is fit
    assert factor(sys, (weights[0] + 1.0, weights[1])) is not fit
    c, eps = 200.0, np.finfo(float).eps
    for p in range(14):
        alpha = 10.0**-p * fit.lam[-1]
        w_ref, reg_ref, cond_ref, s = svd_filtered_fit(sys, weights, f, g, alpha)
        assert fit.lam[-1] == pytest.approx(s[0] ** 2, rel=1e-12)
        w, reg = fit.solve(f, g, alpha)
        tol = c * eps * s[0] / np.sqrt(alpha)
        assert np.abs(w - w_ref).max() <= tol * np.abs(w_ref).max(), p
        assert np.abs(reg - reg_ref).max() <= tol * np.abs(reg_ref).max(), p
        assert fit.condition(alpha) == pytest.approx(cond_ref, rel=c * eps * s[0] ** 2 / alpha)


def test_square_nearly_singular_fit_matches_householder_qr():
    # 2m = K = 20 with s_min / s_1 about 5e-9: at alpha = 1e-13 s_1^2 the fit
    # stays within 1000 eps s_1 / sqrt(alpha) of a QR of [M; sqrt(alpha) I],
    # relative, as the SVD does (about 300 here).  The same recurrence run in
    # u = Q z, with y = M^T u, is about 3000 off.
    part, sys = _system(build_grid(Rect(0, 0, 1, 1.5), 1 / 4), ["bottom", "top"])
    assert 2 * sys.m == part.n_boundary == 20
    f, g = np.random.default_rng(11).normal(size=(2, sys.m, 3))
    fit = factor(sys, (1.0, 1.0))
    alpha = 1e-13 * fit.lam[-1]
    w_ref, reg_ref = qr_fit(sys, (1.0, 1.0), f, g, alpha)
    w, reg = fit.solve(f, g, alpha)
    tol = 1000.0 * np.finfo(float).eps * np.sqrt(fit.lam[-1] / alpha)
    assert np.abs(w - w_ref).max() <= tol * np.abs(w_ref).max()
    assert np.abs(reg - reg_ref).max() <= tol * np.abs(reg_ref).max()


def test_spectrum_arrays_are_read_only():
    # the Spectrum is kept on the system and shared by every later fit
    _, sys = _system(build_grid(Rect(0, 0, 1, 1), 1 / 8), ["bottom"])
    fit = factor(sys, (1.0, 1.0))
    with pytest.raises(ValueError, match="read-only"):
        fit.lam[0] = 0.0
    for name in ("block", "lf", "lg", "root", "left", "right"):
        assert not getattr(fit, name).flags.writeable, name


def test_alpha_below_the_precision_floor_is_a_solver_error():
    # below alpha = 16 eps s_1^2 the refinement cannot be trusted to
    # contract, so the fit refuses rather than return a wrong w
    _, sys = _system(build_grid(Rect(0, 0, 1, 1), 1 / 8), ["bottom"])
    f, g = np.random.default_rng(3).normal(size=(2, sys.m, 2))
    fit = factor(sys, (1.0, 1.0))
    floor = 16 * np.finfo(float).eps * fit.lam[-1]
    assert np.isfinite(fit.solve(f, g, 1.01 * floor)[0]).all()
    for alpha in (0.99 * floor, 1e-300, 5e-324):
        with pytest.raises(SolverError, match="precision floor"):
            fit.solve(f, g, alpha)


@pytest.mark.parametrize("sides", [["bottom"], ["bottom", "top"]])
def test_condition_estimate_is_that_of_the_standard_form(sides):
    # in y = L w the cost is [M0 L^-1; sqrt(alpha) I], M0 here the 3m rows
    # A, D1 A and B.  One side has fewer data rows (2m) than K, two do not.
    part, sys = _system(build_grid(Rect(0, 0, 1, 1), 1 / 8), sides)
    alpha = 1e-8
    r = reconstruct(sys, clean_batch(trace_cauchy(ExpCos(2.0, 0.1), part)), _fixed(alpha))
    s12 = np.sqrt(sys.sigma)[:, None]
    m0 = np.vstack([s12 * sys.A, s12 * (sys.D1 @ sys.A), s12 * sys.B])
    std = np.vstack([m0 @ np.linalg.inv(_dense_penalty_factor(sys)),
                     np.sqrt(alpha) * np.eye(part.n_boundary)])
    assert r.condition_estimate == pytest.approx(np.linalg.cond(std), rel=1e-8)
