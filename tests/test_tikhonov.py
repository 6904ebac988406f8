import numpy as np
import pytest

from harmrec import (CauchyData, Constant, DiscreteSystem, ExpCos, Rect,
                     TikhonovConfig, ValidationError, add_noise,
                     assemble_system, boundary_partition, build_basis,
                     build_grid, compute_base_solutions,
                     minimize, reconstruct, reconstruct_field, run_sweep,
                     select_alpha, trace_cauchy, validate_config)
from harmrec.basis import BoundaryBasis
from harmrec.grid import SIDES, graph_norm
from harmrec.tikhonov import _penalty_factor


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


def _pipeline_pieces(h=1 / 8, method="direct"):
    omega = Rect(0, 0, 1, 1)
    basis = build_basis(omega.padded(h), h, "hat", omega_rect=omega)
    base_set = compute_base_solutions(basis, tol=1e-11, method=method)
    grid = build_grid(omega, h)
    part = boundary_partition(grid, ["bottom"])
    sys = assemble_system(base_set, part)
    return basis, base_set, grid, part, sys


def test_noiseless_constant_reconstruction():
    _, base_set, grid, part, sys = _pipeline_pieces()
    data = trace_cauchy(Constant(1.0), part)
    alpha = 1e-6
    cfg = TikhonovConfig(alpha_rule="fixed", alpha_fixed=alpha)
    result, = reconstruct(sys, [data], cfg, base_set, grid)
    # cost at the all-ones comparison vector bounds the optimum:
    # penalty of the constant-one trace is the perimeter (value term only)
    assert result.residual_f**2 + result.residual_g**2 <= 4.0 * alpha * 1.01
    # far from Γ the constant is only conditionally determined; the
    # deviation there reflects the operator's ~1e16 conditioning, not alpha
    assert np.abs(result.u_star.values - 1.0).max() < 5e-3
    # near-zero regularization tightens toward the direct solve limit
    tight, = reconstruct(sys, [data],
                         TikhonovConfig(alpha_rule="fixed", alpha_fixed=1e-12),
                         base_set, grid)
    assert np.abs(tight.u_star.values - 1.0).max() < 1e-3
    # close to the measured side the fit is sharp
    assert np.abs(tight.u_star.values[:3, :] - 1.0).max() < 1e-6


def test_first_order_optimality():
    _, base_set, grid, part, sys = _pipeline_pieces()
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


def test_reconstruct_field_unit_vector_and_ones():
    omega = Rect(0, 0, 1, 1)
    h = 0.125
    tilde_grid = build_grid(omega.padded(h), h)
    tilde_part = boundary_partition(tilde_grid, SIDES)
    basis = BoundaryBasis(tilde_grid=tilde_grid, tilde_partition=tilde_part,
                          kind="indicator",
                          support=np.array([[0, 10], [10, tilde_part.n_boundary]]))
    base_set = compute_base_solutions(basis, tol=1e-11, method="direct")
    grid = build_grid(omega, h)
    e0 = reconstruct_field(np.array([1.0, 0.0]), base_set, grid)
    oi = oj = 1  # one padding layer
    assert np.array_equal(e0.values,
                          base_set.fields[0, oj:oj + grid.ny, oi:oi + grid.nx])
    ones = reconstruct_field(np.array([1.0, 1.0]), base_set, grid)
    assert np.abs(ones.values - 1.0).max() < 2 * 1e-11 * basis.n


def test_reconstruct_field_validation():
    _, base_set, grid, _, _ = _pipeline_pieces()
    with pytest.raises(ValidationError):
        reconstruct_field(np.zeros(3), base_set, grid)
    bad_grid = build_grid(Rect(0.01, 0, 1.01, 1), 1 / 8)
    with pytest.raises(ValidationError):
        reconstruct_field(np.zeros(base_set.n), base_set, bad_grid)


def test_residuals_monotone_in_alpha():
    _, base_set, grid, part, sys = _pipeline_pieces()
    data = trace_cauchy(Constant(1.0), part)
    noisy = CauchyData(partition=part, points=data.points,
                       f=data.f + 0.05 * np.sin(7 * data.points[:, 0]),
                       g=data.g.copy(), noise_level=0.05)
    prev_res, prev_reg = -1.0, np.inf
    for alpha in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        cfg = TikhonovConfig(alpha_rule="fixed", alpha_fixed=alpha)
        r, = reconstruct(sys, [noisy], cfg, base_set, grid)
        res = r.residual_f**2 + r.residual_g**2
        assert res >= prev_res - 1e-12
        assert r.reg_norm <= prev_reg + 1e-9
        prev_res, prev_reg = res, r.reg_norm


def test_residual_decay_with_grid_refinement():
    # noiseless data, alpha = c*(eps^2 + h^2) with eps = 0: residuals shrink
    totals = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        _, base_set, grid, part, sys = _pipeline_pieces(h=h)
        data = trace_cauchy(ExpCos(2.0, 0.1), part)
        cfg = TikhonovConfig(alpha_rule="a_priori", alpha_c=1.0)
        r, = reconstruct(sys, [data], cfg, base_set, grid)
        totals.append(r.residual_f + r.residual_g)
    assert totals[0] > totals[1] > totals[2]


def test_penalty_factor_consistency():
    basis, _, _, part, sys = _pipeline_pieces()
    f = _penalty_factor(sys)
    assert f is sys.F
    assert f.shape == (3 * part.n_boundary, basis.n)
    # the corner hats of the enlarged boundary are invisible to the penalty
    # as they are to A and B
    invisible = (np.abs(sys.A).max(axis=0) + np.abs(sys.B).max(axis=0)) == 0
    assert invisible.sum() == 4
    assert not np.abs(f[:, invisible]).any()


def test_data_length_mismatch_rejected():
    _, base_set, grid, part, sys = _pipeline_pieces()
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
    _, base_set, grid, part, sys = _pipeline_pieces()
    datas = _noisy_batch(part)
    cfg = TikhonovConfig()
    batch = reconstruct(sys, datas, cfg, base_set, grid)
    assert len(batch) == len(datas)
    for data, r in zip(datas, batch):
        single, = reconstruct(sys, [data], cfg, base_set, grid)
        assert _rel(r.b, single.b) <= 1e-12
        assert _rel(r.u_star.values, single.u_star.values) <= 1e-12
        for name in ("residual_f", "residual_g", "reg_norm"):
            assert _rel(getattr(r, name), getattr(single, name)) <= 1e-12
        assert r.alpha_used == single.alpha_used
    # distinct data give distinct fits: the columns are not mixed up
    assert _rel(batch[0].b, batch[1].b) > 1e-6


def test_batched_norms_match_discrete_norms():
    _, base_set, grid, part, sys = _pipeline_pieces()
    datas = _noisy_batch(part)
    for data, r in zip(datas, reconstruct(sys, datas, TikhonovConfig(),
                                          base_set, grid)):
        res_f = graph_norm(part.gamma_sigma, part.tangential_d1, sys.A @ r.b - data.f)
        r_g = sys.B @ r.b - data.g
        res_g = np.sqrt(np.sum(part.gamma_sigma * r_g**2))
        reg = np.sqrt(r.b @ (sys.F.T @ (sys.F @ r.b)))
        assert _rel(r.residual_f, res_f) <= 1e-12
        assert _rel(r.residual_g, res_g) <= 1e-12
        assert _rel(r.reg_norm, reg) <= 1e-12


def test_batch_needs_one_noise_level():
    _, base_set, grid, part, sys = _pipeline_pieces()
    mixed = _noisy_batch(part, level=0.05) + _noisy_batch(part, level=0.01)
    with pytest.raises(ValidationError, match="one noise level"):
        reconstruct(sys, mixed, TikhonovConfig(), base_set, grid)
    with pytest.raises(ValidationError):
        reconstruct(sys, [], TikhonovConfig(), base_set, grid)


def test_sweep_makes_one_lstsq_per_noise_level(monkeypatch):
    import harmrec.tikhonov

    lstsq = harmrec.tikhonov.np.linalg.lstsq
    rhs_shapes = []

    def counting_lstsq(a, b, *args, **kwargs):
        rhs_shapes.append(np.shape(b))
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(harmrec.tikhonov.np.linalg, "lstsq", counting_lstsq)
    cfg = validate_config({"h": 1 / 16, "padding_layers": 1,
                           "eps_levels": [1e-1, 1e-2, 1e-3],
                           "seeds": [1, 2, 3, 4]})
    run_sweep(cfg)
    assert len(rhs_shapes) == 3
    assert all(shape[1:] == (4,) for shape in rhs_shapes)
