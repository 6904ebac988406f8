"""Acceptance suite: one test per shipping criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Heavy pipeline objects are shared through module fixtures; the
whole module is sized for a laptop.
"""

import time

import numpy as np
import pytest

from harmrec import (CauchyData, DiscreteSystem, Rect, boundary_partition,
                     build_grid, compute_indicate, reconstruct, resolve_config,
                     solve_dirichlet, validate_config)
from harmrec.pipeline import run_experiment, run_sweep
from oracles import annulus_tau, rectangle_series_tau, two_constants_bound


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[acceptance] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def preset_one(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_side")
    cfg = resolve_config(preset="paper-sec5-one-side")
    t0 = time.time()
    res = run_experiment(cfg, out_dir=out)
    res["elapsed"] = time.time() - t0
    res["out"] = out
    return res


@pytest.fixture(scope="module")
def preset_two(tmp_path_factory):
    out = tmp_path_factory.mktemp("two_sides")
    cfg = resolve_config(preset="paper-sec5-two-sides")
    t0 = time.time()
    res = run_experiment(cfg, out_dir=out)
    res["elapsed"] = time.time() - t0
    return res


@pytest.fixture(scope="module")
def sweep_result():
    cfg = resolve_config(preset="paper-sec5-one-side")
    return run_sweep(cfg)


def test_criterion_1_fdm_second_order():
    t0 = time.time()
    errs = {}
    for h in (1 / 32, 1 / 64):
        g = build_grid(Rect(0, 0, 1, 1), h)
        p = boundary_partition(g, ["bottom"])
        xg, yg = g.meshgrid()
        exact = np.exp(xg) * np.sin(yg)
        bv = exact[p.nodes[:, 1], p.nodes[:, 0]]
        sol, = solve_dirichlet(g, [bv])
        errs[h] = np.abs(sol - exact).max()
    ratio = errs[1 / 32] / errs[1 / 64]
    elapsed = time.time() - t0
    report(1, 3.5 <= ratio <= 4.5 and elapsed < 30.0,
           f"error ratio h=1/32 vs 1/64 is {ratio:.3f}, runtime {elapsed:.1f}s")


def test_criterion_2_exponent_symmetry_values():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 64)
    targets = [(["bottom"], 0.25), (["bottom", "top"], 0.5),
               (["bottom", "top", "left"], 0.75)]
    worst = 0.0
    for sides, expected in targets:
        ind = compute_indicate(boundary_partition(g, sides))
        center = ind.values[32, 32]
        worst = max(worst, abs(center - expected))
    report(2, worst <= 2e-3, f"max center deviation {worst:.2e} (tol 2e-3)")


def test_criterion_3_series_oracle_agreement(oracle_comparison_mask):
    g = build_grid(Rect(0, 0, 1, 1), 1 / 64)
    part = boundary_partition(g, ["bottom"])
    ind = compute_indicate(part)
    mask = oracle_comparison_mask(ind, part)
    worst = 0.0
    for j in range(g.ny):
        for i in range(g.nx):
            if mask[j, i]:
                oracle = rectangle_series_tau(g.xs[i], g.ys[j], ["bottom"], 200)
                worst = max(worst, abs(ind.values[j, i] - oracle))
    report(3, worst <= 5e-3,
           f"max |field - series| {worst:.2e} over nodes >= 3h from "
           f"endpoints (tol 5e-3)")


def test_criterion_4_two_constants_sharpness():
    n, big_r, r, eps = 3, 2.0, 1.5, 1e-2
    w_mag = eps * r**n
    m_bound = eps * big_r**n
    bound = two_constants_bound(eps, m_bound, annulus_tau(r, big_r))
    rel = abs(w_mag - bound) / w_mag
    report(4, rel <= 1e-12, f"relative difference {rel:.2e} (tol 1e-12)")


def test_criterion_5_ridge_closed_form():
    sys1d = DiscreteSystem(A=np.array([[1.0]]), B=np.array([[0.0]]),
                           sigma=np.array([1.0]), D1=np.array([[0.0]]), h=1.0)
    alpha = 1e-3
    cfg = validate_config({"alpha_rule": "fixed", "alpha_fixed": alpha})
    b1 = reconstruct(sys1d, [CauchyData(partition=None, points=np.zeros((1, 2)),
                                        f=np.array([1.0]), g=np.array([0.0]))], cfg).w[0]
    b0 = reconstruct(sys1d, [CauchyData(partition=None, points=np.zeros((1, 2)),
                                        f=np.array([0.0]), g=np.array([0.0]))], cfg).w[0]
    err_ridge = abs(b1[0] - 1.0 / (1.0 + alpha))
    ok = err_ridge <= 1e-12 and abs(b0[0]) <= 1e-12
    report(5, ok, f"|b - 1/(1+a)| = {err_ridge:.2e}, |b(0)| = {abs(b0[0]):.2e}")


def test_criterion_6_reference_reproduction(preset_one, preset_two):
    s1 = preset_one["summary"]
    err1 = preset_one["error_field"].values
    err2 = preset_two["error_field"].values
    g = preset_one["state"].grid
    med_in = s1["reliability"]["inside"]["median"]
    med_out = s1["reliability"]["outside"]["median"]
    j25, j75 = round(0.25 / g.h), round(0.75 / g.h)
    row25, row75 = err1[j25, :].mean(), err1[j75, :].mean()
    top1 = err1[j75:, :].mean()
    top2 = err2[j75:, :].mean()
    elapsed = preset_one["elapsed"] + preset_two["elapsed"]
    ok = (med_in < med_out) and (row75 > row25) and (top2 < top1) \
        and elapsed < 300.0
    report(6, ok,
           f"(a) median inside {med_in:.3f} < outside {med_out:.3f}; "
           f"(b) row err y=0.75 {row75:.3f} > y=0.25 {row25:.3f}; "
           f"(c) top-quarter err two-sides {top2:.3f} < one-side {top1:.3f}; "
           f"runtime {elapsed:.1f}s")


def test_criterion_7_rate_exponent_correlation(sweep_result):
    sw = sweep_result
    n_in = sw["probes_in_range"]
    rho = sw["spearman_slope_tau"]
    probe = sw["probe_near_07"]
    ok = n_in >= 6 and rho >= 0.8 and probe["slope"] >= 0.4
    report(7, ok,
           f"{n_in} probes in band, Spearman(slope, tau) = {rho:.3f} "
           f"(>= 0.8), slope at tau={probe['tau']:.3f} is "
           f"{probe['slope']:.3f} (>= 0.4)")


def test_criterion_8_minimizer_boundedness(sweep_result):
    slope = sweep_result["reg_norm_log_slope"]
    report(8, abs(slope) <= 0.1,
           f"log penalty-norm vs log eps slope {slope:+.3f} (|.| <= 0.1)")


def test_criterion_9_byte_identical_artifacts(preset_one, tmp_path_factory):
    out2 = tmp_path_factory.mktemp("one_side_again")
    cfg = resolve_config(preset="paper-sec5-one-side")
    run_experiment(cfg, out_dir=out2)
    first = preset_one["out"]
    names = sorted(p.name for p in first.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    same = names == names2 and all(
        (first / n).read_bytes() == (out2 / n).read_bytes() for n in names
    )
    report(9, same, f"{len(names)} artifacts byte-identical across two runs")
