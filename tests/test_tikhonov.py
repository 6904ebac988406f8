import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import (CauchyData, Constant, DiscreteSystem, ExpCos, Rect,
                     TikhonovConfig, ValidationError, add_noise,
                     assemble_system, boundary_partition, build_basis,
                     build_grid, compute_base_solutions,
                     minimize, reconstruct, reconstruct_field, run_sweep,
                     select_alpha, trace_cauchy, validate_config)
from harmrec.basis import BoundaryBasis
from harmrec.grid import SIDES, graph_norm
from harmrec.tikhonov import _penalty_factor, _standard_form


def test_select_alpha_a_priori():
    a = select_alpha(0.01, 1 / 64, rule="a_priori", c=1.0)
    assert abs(a - (1e-4 + (1 / 64) ** 2)) < 1e-18
    assert abs(a - 3.4414e-4) < 1e-8
    # limit: alpha -> 0 as both inputs shrink
    for h in (1e-2, 1e-4, 1e-6):
        assert select_alpha(0.0, h) == h * h
    assert select_alpha(0.0, 1e-6) < 1e-11


def test_select_alpha_fixed_and_errors():
    assert select_alpha(0.5, 0.1, rule="fixed", fixed=1e-6) == 1e-6
    with pytest.raises(ValidationError):
        select_alpha(0.5, 0.1, rule="fixed", fixed=None)
    with pytest.raises(ValidationError):
        select_alpha(0.5, 0.1, rule="fixed", fixed=0.0)
    with pytest.raises(ValidationError):
        select_alpha(-1.0, 0.1)
    with pytest.raises(ValidationError):
        select_alpha(0.1, 0.1, rule="bayes")


def test_config_weight_validation():
    with pytest.raises(ValidationError):
        TikhonovConfig(data_weights=(0.0, 0.0))
    with pytest.raises(ValidationError):
        TikhonovConfig(data_weights=(-1.0, 1.0))


def _scalar_system():
    return DiscreteSystem(A=np.array([[1.0]]), B=np.array([[0.0]]),
                          F=np.array([[1.0]]), sigma=np.array([1.0]),
                          D1=np.array([[0.0]]), h=1.0)


def _scalar_data(f, g):
    return CauchyData(partition=None, points=np.zeros((1, 2)),
                      f=np.array([float(f)]), g=np.array([float(g)]))


def test_scalar_ridge_closed_form():
    for alpha in (1e-3, 1e-1, 1.0):
        cfg = TikhonovConfig(alpha_rule="fixed", alpha_fixed=alpha)
        b = minimize(_scalar_system(), _scalar_data(1.0, 0.0), cfg)
        assert abs(b[0] - 1.0 / (1.0 + alpha)) < 1e-12


def test_zero_data_gives_zero_coefficients():
    cfg = TikhonovConfig(alpha_rule="fixed", alpha_fixed=1e-4)
    b = minimize(_scalar_system(), _scalar_data(0.0, 0.0), cfg)
    assert abs(b[0]) < 1e-12


def _pipeline_pieces(h=1 / 8):
    omega = Rect(0, 0, 1, 1)
    basis = build_basis(omega.padded(h), h, "hat", omega_rect=omega)
    grid = build_grid(omega, h)
    part = boundary_partition(grid, ["bottom"])
    sys = assemble_system(compute_base_solutions(basis, part), part)
    return basis, grid, part, sys


def test_noiseless_constant_reconstruction():
    basis, grid, part, sys = _pipeline_pieces()
    data = trace_cauchy(Constant(1.0), part)
    alpha = 1e-6
    cfg = TikhonovConfig(alpha_rule="fixed", alpha_fixed=alpha)
    result, = reconstruct(sys, [data], cfg, basis, grid)
    # cost at the all-ones comparison vector bounds the optimum:
    # penalty of the constant-one trace is the perimeter (value term only)
    assert result.residual_f**2 + result.residual_g**2 <= 4.0 * alpha * 1.01
    # far from Γ the constant is only conditionally determined; the
    # deviation there reflects the operator's ~1e16 conditioning, not alpha
    assert np.abs(result.u_star.values - 1.0).max() < 5e-3
    # near-zero regularization tightens toward the direct solve limit
    tight, = reconstruct(sys, [data],
                         TikhonovConfig(alpha_rule="fixed", alpha_fixed=1e-12),
                         basis, grid)
    assert np.abs(tight.u_star.values - 1.0).max() < 1e-3
    # close to the measured side the fit is sharp
    assert np.abs(tight.u_star.values[:3, :] - 1.0).max() < 1e-6


def test_first_order_optimality():
    basis, grid, part, sys = _pipeline_pieces()
    data = trace_cauchy(Constant(2.0), part)
    alpha = 1e-5
    cfg = TikhonovConfig(alpha_rule="fixed", alpha_fixed=alpha)
    b = minimize(sys, data, cfg)
    s = sys.sigma
    rf = sys.A @ b - data.f
    rg = sys.B @ b - data.g
    d1 = sys.D1
    grad = (2 * sys.A.T @ (s * rf) + 2 * (d1 @ sys.A).T @ (s * (d1 @ rf))
            + 2 * sys.B.T @ (s * rg) + 2 * alpha * sys.F.T @ (sys.F @ b))
    # structurally invisible directions (grid-corner hats) are pinned to 0
    visible = np.abs(sys.A).max(axis=0) + np.abs(sys.B).max(axis=0) > 0
    assert np.linalg.norm(grad[visible]) <= 1e-8 * (1 + np.linalg.norm(b))


def test_reconstruct_field_unit_vector_and_ones(base_solution_fields):
    omega = Rect(0, 0, 1, 1)
    h = 0.125
    tilde_grid = build_grid(omega.padded(h), h)
    tilde_part = boundary_partition(tilde_grid, SIDES)
    basis = BoundaryBasis(tilde_grid=tilde_grid, tilde_partition=tilde_part,
                          kind="indicator",
                          support=np.array([[0, 10], [10, tilde_part.n_boundary]]))
    grid = build_grid(omega, h)
    e0 = reconstruct_field(np.array([1.0, 0.0]), basis, grid)
    oi = oj = 1  # one padding layer
    assert np.abs(e0.values - base_solution_fields(basis)[
        0, oj:oj + grid.ny, oi:oi + grid.nx]).max() <= 1e-12
    ones = reconstruct_field(np.array([1.0, 1.0]), basis, grid)
    assert np.abs(ones.values - 1.0).max() < 2 * 1e-11 * basis.n


@pytest.mark.parametrize("kind", ["hat", "indicator"])
def test_reconstruct_field_matches_sparse_reference(base_solution_fields, kind):
    # a batch of random combinations on a non-square grid, two padding layers
    h, omega = 1 / 8, Rect(0, 0, 1, 0.75)
    basis = build_basis(omega.padded(2 * h), h, kind, omega_rect=omega,
                        arcs_per_side=3)
    grid = build_grid(omega, h)
    b = np.random.default_rng(11).normal(size=(3, basis.n))
    ref = np.tensordot(b, base_solution_fields(basis), axes=1)[:, 2:-2, 2:-2]
    for fld, r in zip(reconstruct_field(b, basis, grid), ref):
        assert np.abs(fld.values - r).max() <= 1e-12 * np.abs(r).max()
    single = reconstruct_field(b[1], basis, grid)
    assert np.abs(single.values - ref[1]).max() <= 1e-12 * np.abs(ref[1]).max()


def test_reconstruct_field_validation():
    basis, grid, _, _ = _pipeline_pieces()
    with pytest.raises(ValidationError):
        reconstruct_field(np.zeros(3), basis, grid)
    bad_grid = build_grid(Rect(0.01, 0, 1.01, 1), 1 / 8)
    with pytest.raises(ValidationError):
        reconstruct_field(np.zeros(basis.n), basis, bad_grid)


def test_residuals_monotone_in_alpha():
    basis, grid, part, sys = _pipeline_pieces()
    data = trace_cauchy(Constant(1.0), part)
    noisy = CauchyData(partition=part, points=data.points,
                       f=data.f + 0.05 * np.sin(7 * data.points[:, 0]),
                       g=data.g.copy(), noise_level=0.05)
    prev_res, prev_reg = -1.0, np.inf
    for alpha in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        cfg = TikhonovConfig(alpha_rule="fixed", alpha_fixed=alpha)
        r, = reconstruct(sys, [noisy], cfg, basis, grid)
        res = r.residual_f**2 + r.residual_g**2
        assert res >= prev_res - 1e-12
        assert r.reg_norm <= prev_reg + 1e-9
        prev_res, prev_reg = res, r.reg_norm


def test_residual_decay_with_grid_refinement():
    # noiseless data, alpha = c*(eps^2 + h^2) with eps = 0: residuals shrink
    totals = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        basis, grid, part, sys = _pipeline_pieces(h=h)
        data = trace_cauchy(ExpCos(2.0, 0.1), part)
        cfg = TikhonovConfig(alpha_rule="a_priori", alpha_c=1.0)
        r, = reconstruct(sys, [data], cfg, basis, grid)
        totals.append(r.residual_f + r.residual_g)
    assert totals[0] > totals[1] > totals[2]


def test_penalty_factor_consistency():
    basis, _, part, sys = _pipeline_pieces()
    f = _penalty_factor(sys)
    assert f is sys.F
    assert f.shape == (part.n_boundary, basis.n)
    # the corner hats of the enlarged boundary are invisible to the penalty
    # as they are to A and B
    invisible = (np.abs(sys.A).max(axis=0) + np.abs(sys.B).max(axis=0)) == 0
    assert invisible.sum() == 4
    assert not np.abs(f[:, invisible]).any()


def test_data_length_mismatch_rejected():
    basis, grid, part, sys = _pipeline_pieces()
    bad = CauchyData(partition=part, points=np.zeros((3, 2)),
                     f=np.zeros(3), g=np.zeros(3))
    with pytest.raises(ValidationError):
        minimize(sys, bad, TikhonovConfig(alpha_rule="fixed", alpha_fixed=1e-6))


def _noisy_batch(part, level=0.05, seeds=(1, 2, 3)):
    clean = trace_cauchy(ExpCos(2.0, 0.1), part)
    return [add_noise(clean, level, seed) for seed in seeds]


def _rel(a, b):
    return np.linalg.norm(np.asarray(a) - b) / max(np.linalg.norm(b), 1e-300)


def test_batched_fit_matches_single_fits():
    basis, grid, part, sys = _pipeline_pieces()
    datas = _noisy_batch(part)
    cfg = TikhonovConfig()
    batch = reconstruct(sys, datas, cfg, basis, grid)
    assert len(batch) == len(datas)
    for data, r in zip(datas, batch):
        single, = reconstruct(sys, [data], cfg, basis, grid)
        assert _rel(r.b, single.b) <= 1e-12
        assert _rel(r.u_star.values, single.u_star.values) <= 1e-12
        for name in ("residual_f", "residual_g", "reg_norm"):
            assert _rel(getattr(r, name), getattr(single, name)) <= 1e-12
        assert r.alpha_used == single.alpha_used
    # distinct data give distinct fits: the columns are not mixed up
    assert _rel(batch[0].b, batch[1].b) > 1e-6


def test_batched_norms_match_discrete_norms():
    basis, grid, part, sys = _pipeline_pieces()
    datas = _noisy_batch(part)
    for data, r in zip(datas, reconstruct(sys, datas, TikhonovConfig(),
                                          basis, grid)):
        res_f = graph_norm(part.gamma_sigma, part.tangential_d1, sys.A @ r.b - data.f)
        r_g = sys.B @ r.b - data.g
        res_g = np.sqrt(np.sum(part.gamma_sigma * r_g**2))
        reg = np.sqrt(r.b @ (sys.F.T @ (sys.F @ r.b)))
        assert _rel(r.residual_f, res_f) <= 1e-12
        assert _rel(r.residual_g, res_g) <= 1e-12
        assert _rel(r.reg_norm, reg) <= 1e-12


def test_batch_needs_one_noise_level():
    basis, grid, part, sys = _pipeline_pieces()
    mixed = _noisy_batch(part, level=0.05) + _noisy_batch(part, level=0.01)
    with pytest.raises(ValidationError, match="one noise level"):
        reconstruct(sys, mixed, TikhonovConfig(), basis, grid)
    with pytest.raises(ValidationError):
        reconstruct(sys, [], TikhonovConfig(), basis, grid)


def test_sweep_factors_once_and_filters_once_per_noise_level(monkeypatch):
    import harmrec.tikhonov as tik

    factorisations, columns = [], []
    standard_form, solve = tik._standard_form, tik._StandardForm.solve

    def counting_standard_form(sys, weights):
        factorisations.append(weights)
        return standard_form(sys, weights)

    def counting_solve(self, f, g, alpha):
        columns.append(f.shape[1])
        return solve(self, f, g, alpha)

    built, svd = [], np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        built.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(tik, "_standard_form", counting_standard_form)
    monkeypatch.setattr(tik._StandardForm, "solve", counting_solve)
    monkeypatch.setattr(tik.np.linalg, "svd", counting_svd)
    cfg = validate_config({"h": 1 / 16, "padding_layers": 1,
                           "eps_levels": [1e-1, 1e-2, 1e-3],
                           "seeds": [1, 2, 3, 4]})
    run_sweep(cfg)
    # every level looks the factorisation up; the SVD pair runs once
    assert len(factorisations) == 3 and len(built) == 2
    assert columns == [4, 4, 4]


def _stacked_lstsq(sys, f, g, weights, alpha):
    """Reference fit: SVD least squares of the stacked matrix [M0; sqrt(alpha) F],
    all-zero columns pinned to 0.  Returns the (k, n) minimizers and the
    condition number of the singular values least squares kept."""
    w_f, w_g = weights
    s12 = np.sqrt(sys.sigma)[:, None]
    blocks, rhs = [], []
    if w_f > 0:
        wf = np.sqrt(w_f) * s12
        blocks += [wf * sys.A, wf * (sys.D1 @ sys.A)]
        rhs += [wf * f, wf * (sys.D1 @ f)]
    if w_g > 0:
        blocks.append(np.sqrt(w_g) * s12 * sys.B)
        rhs.append(np.sqrt(w_g) * s12 * g)
    blocks.append(np.sqrt(alpha) * sys.F)
    rhs.append(np.zeros((sys.F.shape[0], f.shape[1])))
    m_stack = np.vstack(blocks)
    visible = np.abs(m_stack).max(axis=0) > 0
    b = np.zeros((f.shape[1], sys.n))
    b_vis, _, rank, svals = np.linalg.lstsq(m_stack[:, visible], np.vstack(rhs), rcond=None)
    b[:, visible] = b_vis.T
    return b, svals[0] / svals[rank - 1]


def _check_against_oracle(sys, weights, alpha, rng):
    f, g = rng.normal(size=(2, sys.m, 3))
    fit = _standard_form(sys, weights)
    b = fit.solve(f, g, alpha)
    ref, kappa = _stacked_lstsq(sys, f, g, weights, alpha)
    # least squares moves b by up to about eps * kappa^2 under rounding,
    # whichever method solves it
    tol = max(1e-12, 1e-15 * kappa**2)
    assert np.abs(b - ref).max() <= tol * np.abs(ref).max()
    return fit


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kind=st.sampled_from(["hat", "indicator"]), padding=st.integers(1, 4),
       k=st.integers(4, 8), shape=st.tuples(st.integers(2, 8), st.integers(2, 8)),
       sides=st.lists(st.sampled_from(SIDES), min_size=1, max_size=3, unique=True),
       weights=st.sampled_from([(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 2.0)]),
       log_alpha=st.floats(-8.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_filtered_fit_matches_stacked_lstsq(kind, padding, k, shape, sides, weights,
                                            log_alpha, seed):
    h = 1.0 / k
    omega = Rect(0.0, 0.0, shape[0] * h, shape[1] * h)
    basis = build_basis(omega.padded(padding * h), h, kind, omega_rect=omega,
                        arcs_per_side=2)
    part = boundary_partition(build_grid(omega, h), sides)
    rows = compute_base_solutions(basis, part)
    sys = assemble_system(rows, part)
    fit = _check_against_oracle(sys, weights, 10.0**log_alpha, np.random.default_rng(seed))
    # an assembled data block sees b only through the traces F sees (the fit
    # would raise ValidationError on one that saw null(F))
    assert fit.rank == np.linalg.matrix_rank(rows[2 * part.m:])
    if kind == "hat":  # the K traces are independent: n - K null directions
        assert fit.rank == part.n_boundary


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
def test_filtered_fit_matches_stacked_lstsq_when_data_sees_null_of_f(weights):
    # a hand-built system: F has rank 2 on 6 coefficients and a zero column.
    # Where the data block sees null(F) the fit is rejected; with the data
    # block projected onto the row space of F it matches the oracle
    rng = np.random.default_rng(3)
    f_mat = rng.normal(size=(2, 6)) @ np.diag([1.0, 2.0, 0.5, 1.0, 3.0, 0.0])
    a_mat, b_mat = rng.normal(size=(2, 5, 6))
    parts = dict(F=f_mat, sigma=rng.uniform(0.5, 1.0, 5), D1=rng.normal(size=(5, 5)), h=0.1)
    with pytest.raises(ValidationError, match="null"):
        _standard_form(DiscreteSystem(A=a_mat, B=b_mat, **parts), weights)
    row_space = np.linalg.pinv(f_mat) @ f_mat
    sys = DiscreteSystem(A=a_mat @ row_space, B=b_mat @ row_space, **parts)
    for alpha in (1e-6, 1e-2, 1.0):
        assert _check_against_oracle(sys, weights, alpha, rng).rank == 2


@pytest.mark.parametrize("sides", [["bottom"], ["bottom", "top"]])
def test_condition_estimate_is_that_of_the_standard_form(sides):
    # F^+ = Z S^-1 U^T, so [M0 F^+; sqrt(alpha) I] has the singular values of
    # the standard form [M0 Z S^-1; sqrt(alpha) I]; M0 here is the 3m rows
    # A, D1 A and B.  One side has fewer data rows (2m) than K, two do not.
    h, omega = 1 / 8, Rect(0, 0, 1, 1)
    basis = build_basis(omega.padded(h), h, "hat", omega_rect=omega)
    grid = build_grid(omega, h)
    part = boundary_partition(grid, sides)
    sys = assemble_system(compute_base_solutions(basis, part), part)
    alpha = 1e-8
    r, = reconstruct(sys, [trace_cauchy(ExpCos(2.0, 0.1), part)],
                     TikhonovConfig(alpha_rule="fixed", alpha_fixed=alpha), basis, grid)
    s12 = np.sqrt(sys.sigma)[:, None]
    m0 = np.vstack([s12 * sys.A, s12 * (sys.D1 @ sys.A), s12 * sys.B])
    std = np.vstack([m0 @ np.linalg.pinv(sys.F), np.sqrt(alpha) * np.eye(part.n_boundary)])
    assert r.condition_estimate == pytest.approx(np.linalg.cond(std), rel=1e-8)
    assert (r.effective_rank, basis.n - r.effective_rank) == (part.n_boundary, 8)
