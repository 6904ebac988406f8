"""Integration checks of the orchestration layer on a fast configuration."""

import tracemalloc

import numpy as np
import pytest

from harmrec import resolve_config, validate_config
from harmrec.evaluate import auto_probe_nodes, envelope_check, pointwise_error
from harmrec.forward import add_noise
from harmrec.pipeline import (_reconstruct_for, build_state, run_experiment,
                              run_sweep, run_tau, tik_config)
from harmrec.tikhonov import reconstruct

FAST = {
    "h": 1 / 16,
    "padding_layers": 1,
    "exact": "exp_cos",
    "exact_a": 2.0,
    "exact_shift": 0.1,
    "noise_level": 0.02,
    "solver": "direct",
}


@pytest.fixture(scope="module")
def fast_state():
    return build_state(validate_config(FAST))


def test_run_summary_contents(fast_state):
    res = run_experiment(fast_state.cfg, state=fast_state)
    s = res["summary"]
    assert s["m"] == 17
    assert s["n_basis"] == fast_state.basis.n
    assert s["config"]["h"] == 1 / 16
    assert s["noise"]["realized_eps"] > 0
    assert s["envelope"]["eps"] == 0.02
    assert s["envelope_degraded"]["tau0"] == 0.49
    assert 0 < s["reliable_fraction"] < 1
    # residuals recomputable from the persisted coefficients
    assert s["residual_f"] >= 0 and s["residual_g"] >= 0


def test_envelope_constant_stable_across_ten_seeds(fast_state):
    cfg = fast_state.cfg
    c_fits = []
    for seed in range(1, 11):
        _, result = _reconstruct_for(fast_state, 0.02, seed)
        err = pointwise_error(result.u_star, cfg.exact_solution())
        rep = envelope_check(err, fast_state.tau, 0.02)
        c_fits.append(rep.c_fit)
    assert max(c_fits) / min(c_fits) < 10.0


def test_reliable_fraction_grows_with_second_side():
    one = run_experiment(validate_config(FAST))
    two = run_experiment(validate_config({**FAST,
                                          "gamma_sides": ["bottom", "top"]}))
    assert two["summary"]["reliable_fraction"] > one["summary"]["reliable_fraction"]


def test_noiseless_run_skips_envelope():
    res = run_experiment(validate_config({**FAST, "noise_level": 0.0}))
    assert res["summary"]["envelope"] is None
    assert res["summary"]["noise"]["realized_eps"] == 0.0


def test_run_tau_panel_summaries():
    summary = run_tau(validate_config({**FAST,
                                       "tau_gamma_sets": [["bottom"],
                                                          ["left"]]}))
    assert [p["sides"] for p in summary["panels"]] == [["bottom"], ["left"]]
    for p in summary["panels"]:
        assert abs(p["tau_center"] - 0.25) < 2e-3


def test_alpha_follows_noise_level(fast_state):
    data_big = add_noise(fast_state.clean_data, 0.1, 1)
    data_small = add_noise(fast_state.clean_data, 0.001, 1)
    from harmrec.pipeline import tik_config

    tc = tik_config(fast_state.cfg)
    a_big = tc.resolve_alpha(data_big.noise_level, fast_state.system.h)
    a_small = tc.resolve_alpha(data_small.noise_level, fast_state.system.h)
    assert a_big > a_small > 0


def test_sweep_matches_per_seed_evaluation():
    # the sweep's (seeds, ny, nx) error stack against one pointwise_error and
    # envelope_check per (level, seed); eps 2.0 has no envelope
    seeds = [1, 2, 3]
    cfg = validate_config({**FAST, "eps_levels": [0.1, 0.01, 0.001, 2.0],
                           "seeds": seeds})
    sweep = run_sweep(cfg)
    state = build_state(cfg)
    nodes = auto_probe_nodes(state.tau)
    c_fits = []
    for lv in cfg["eps_levels"]:
        datas = [add_noise(state.clean_data, lv, s, cfg["noise_model"]) for s in seeds]
        results = reconstruct(state.system, datas, tik_config(cfg),
                              state.basis, state.grid)
        mean = np.zeros(len(nodes))
        for seed, r in zip(seeds, results):
            err = pointwise_error(r.u_star, cfg.exact_solution())
            mean += np.array([err.values[j, i] for i, j in nodes]) / len(seeds)
            if 0 < lv < 1:
                c_fits.append({"eps": lv, "seed": seed,
                               "c_fit": envelope_check(err, state.tau, lv).c_fit})
    assert sweep["envelope_c_fits"] == c_fits
    assert [p["err"] for p in sweep["probes"]] == mean.tolist()


def test_sweep_keys_every_level_apart():
    # two levels that agree to six significant digits still get a key each
    levels = [0.1, 0.01, 0.001, 0.0010000001]
    cfg = validate_config({**FAST, "eps_levels": levels, "seeds": [1, 2]})
    by_level = run_sweep(cfg)["reg_norm_by_level"]
    assert list(by_level) == [repr(lv) for lv in levels]


@pytest.mark.parametrize("preset", ["paper-sec5-one-side", "paper-sec5-two-sides"])
def test_presets_report_the_fit_rank_and_a_finite_condition(preset):
    # the inner boundary walk has K = 256 nodes, so F has rank 256 and the
    # 264 hats leave 8 directions no cost can see
    s = run_experiment(resolve_config(preset=preset))["summary"]
    assert (s["n_basis"], s["effective_rank"], s["discarded_directions"]) == (264, 256, 8)
    assert 1.0 < s["condition_estimate"] < 1e4


def test_build_state_memory_at_h_128():
    # no (n, ny, nx) stack of base solutions (it alone was 71 MB here): the
    # largest arrays are the sampled rows (3.7 MB) and the penalty factor (6.4 MB)
    cfg = resolve_config(preset="paper-sec5-one-side", overrides={"h": 1 / 128})
    tracemalloc.start()
    try:
        build_state(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
