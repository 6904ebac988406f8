"""Integration checks of the orchestration layer on a fast configuration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import pipeline, resolve_config, validate_config
from harmrec.basis import build_basis, compute_base_solutions
from harmrec.evaluate import auto_probe_nodes, envelope_check, pointwise_error
from harmrec.forward import add_noise, sample_exact
from harmrec.pipeline import build_state, run_experiment, run_sweep, run_tau
from harmrec.poisson import ScalarField
from harmrec.tikhonov import reconstruct, reconstruct_field
from oracles import batch_of

FAST = {
    "h": 1 / 16,
    "exact": "exp_cos",
    "exact_a": 2.0,
    "exact_shift": 0.1,
    "noise_level": 0.02,
}


@pytest.fixture(scope="module")
def fast_state():
    return build_state(validate_config(FAST))


def test_run_summary_contents(fast_state):
    res = run_experiment(fast_state.cfg)
    s = res["summary"]
    # every key is a value of this run: none is a count the grid fixes
    assert set(s) == {
        "alpha_used", "condition_estimate", "config", "envelope", "error",
        "grid", "m", "noise", "reg_norm", "reliability", "reliable_fraction",
        "residual_f", "residual_g", "tau_center"}
    assert s["m"] == 17
    assert s["config"]["h"] == 1 / 16
    assert s["noise"]["realized_eps"] > 0
    assert s["envelope"]["eps"] == 0.02
    assert "envelope_degraded" not in s
    assert set(s["envelope"]) == {"eps", "c_fit", "probes"}
    assert 0 < s["reliable_fraction"] < 1
    # residuals recomputable from the persisted coefficients
    assert s["residual_f"] >= 0 and s["residual_g"] >= 0


def test_envelope_constant_stable_across_ten_seeds(fast_state):
    cfg = fast_state.cfg
    exact_field = sample_exact(cfg.exact_solution(), fast_state.grid)
    c_fits = []
    for seed in range(1, 11):
        datas = add_noise(fast_state.clean_data, 0.02, [seed], cfg["noise_model"])
        w = reconstruct(fast_state.system, batch_of(datas), cfg).w
        u_star, = reconstruct_field(w, fast_state.system)
        err = pointwise_error(ScalarField(fast_state.grid, u_star), exact_field)
        rep = envelope_check(err, fast_state.tau, 0.02)
        c_fits.append(rep["c_fit"])
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
    data_big, = add_noise(fast_state.clean_data, 0.1, [1])
    data_small, = add_noise(fast_state.clean_data, 0.001, [1])
    cfg = fast_state.cfg
    a_big = cfg.alpha(data_big.noise_level, fast_state.system.h)
    a_small = cfg.alpha(data_small.noise_level, fast_state.system.h)
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
    exact_field = sample_exact(cfg.exact_solution(), state.grid)
    c_fits = []
    for lv in cfg["eps_levels"]:
        datas = [add_noise(state.clean_data, lv, [s], cfg["noise_model"])[0] for s in seeds]
        result = reconstruct(state.system, batch_of(datas), cfg)
        mean = np.zeros(len(nodes))
        for seed, u_star in zip(seeds, reconstruct_field(result.w, state.system)):
            err = pointwise_error(ScalarField(state.grid, u_star), exact_field)
            mean += np.array([err.values[j, i] for i, j in nodes]) / len(seeds)
            if 0 < lv < 1:
                c_fits.append({"eps": lv, "seed": seed,
                               "c_fit": envelope_check(err, state.tau, lv)["c_fit"]})
    assert sweep["envelope_c_fits"] == c_fits
    assert [p["err"] for p in sweep["probes"]] == mean.tolist()


def test_run_is_a_sweep_of_one_seed():
    # run makes the calls a sweep level makes, with one seed: a one-seed
    # sweep's envelope constants are run's at each level, and its last
    # level's probe errors are run's error field at the probes, bit for bit
    seed = 7
    cfg = resolve_config(preset="paper-sec5-one-side",
                         overrides={"h": 1 / 32, "seeds": [seed]})
    sweep = run_sweep(cfg)
    runs = [run_experiment(validate_config({**cfg.raw, "noise_level": lv, "seed": seed}))
            for lv in cfg["eps_levels"]]
    assert sweep["envelope_c_fits"] == [
        {"eps": r["summary"]["envelope"]["eps"], "seed": seed,
         "c_fit": r["summary"]["envelope"]["c_fit"]} for r in runs]
    last = runs[-1]
    err = last["error_field"].values
    nodes = auto_probe_nodes(last["state"].tau)
    assert [p["err"] for p in sweep["probes"]] == [err[j, i] for i, j in nodes]


@pytest.mark.parametrize("model", ["uniform", "gaussian"])
@pytest.mark.parametrize("levels", [[1e-1, 1e-2, 1e-3], [2.0, 1e-1, 3e-2, 1e-2, 1e-3]],
                         ids=["3-levels", "5-levels"])
def test_sweep_draws_its_noise_once(monkeypatch, model, levels):
    # one pass of the generator per sweep, whatever the number of levels,
    # and a second sweep draws again: nothing is kept between calls
    import harmrec.forward
    import harmrec.rng

    calls = []
    originals = {name: getattr(harmrec.rng, name) for name in ("uniforms", "normals")}

    def spy(name):
        def wrapped(*args):
            calls.append(name)
            return originals[name](*args)
        return wrapped

    for mod in (harmrec.rng, harmrec.forward):
        for name in originals:
            monkeypatch.setattr(mod, name, spy(name))
    cfg = validate_config({**FAST, "eps_levels": levels, "seeds": [1, 2, 3],
                           "noise_model": model})
    once = ["uniforms"] if model == "uniform" else ["normals", "uniforms"]
    run_sweep(cfg)
    assert calls == once
    run_sweep(cfg)
    assert calls == once * 2


@settings(max_examples=20, deadline=None)
@given(model=st.sampled_from(["uniform", "gaussian"]),
       top=st.floats(0.02, 2.0),
       inner=st.lists(st.floats(0.011, 0.99), min_size=1, max_size=3, unique=True),
       seeds=st.lists(st.integers(min_value=-2**70, max_value=2**70), min_size=1,
                      max_size=5, unique_by=lambda s: s % 2**64))
def test_sweep_levels_fit_add_noise_data(model, top, inner, seeds):
    # each level's batch holds, row by row, the f and g that add_noise gives
    # the same seeds at that level, bit for bit, though the sweep draws once
    levels = [top, *(top * x for x in inner), top / 100]
    cfg = validate_config({**FAST, "eps_levels": levels, "seeds": seeds,
                           "noise_model": model})
    batches = []

    def spy(sys, batch, cfg):
        batches.append(batch)
        return reconstruct(sys, batch, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "reconstruct", spy)
        run_sweep(cfg)
    clean = build_state(cfg).clean_data
    assert [b.level for b in batches] == levels
    for batch in batches:
        records = add_noise(clean, batch.level, seeds, model)
        assert batch.f.tobytes() == np.array([r.f for r in records]).tobytes()
        assert batch.g.tobytes() == np.array([r.g for r in records]).tobytes()


def test_sweep_keys_every_level_apart():
    # two levels that agree to six significant digits still get a key each
    levels = [0.1, 0.01, 0.001, 0.0010000001]
    cfg = validate_config({**FAST, "eps_levels": levels, "seeds": [1, 2]})
    by_level = run_sweep(cfg)["reg_norm_by_level"]
    assert list(by_level) == [repr(lv) for lv in levels]


@pytest.mark.parametrize("preset", ["paper-sec5-one-side", "paper-sec5-two-sides"])
def test_presets_report_the_fit_rank_and_a_finite_condition(preset):
    # the fit solves for the K = 256 traces on the domain's rim; the summary
    # reports its condition, and no count the grid fixes
    res = run_experiment(resolve_config(preset=preset))
    s = res["summary"]
    assert res["result"].w.shape == (1, res["state"].partition.n_boundary) == (1, 256)
    assert not {"n_basis", "effective_rank", "discarded_directions"} & set(s)
    assert 1.0 < s["condition_estimate"] < 1e4


def test_build_state_memory_at_h_128():
    # no (n, ny, nx) stack of base solutions (it alone was 71 MB here) and
    # no hats at all: the largest array is the block of extension rows B is
    # built from (258 x 512, 1.1 MB).  The build peaks at 2.7 MB (2.9 MB on
    # a first call in the process); the bound is about twice that.
    cfg = resolve_config(preset="paper-sec5-one-side", overrides={"h": 1 / 128})
    tracemalloc.start()
    try:
        build_state(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.mark.parametrize("sides", [["bottom"], ["bottom", "top"], ["bottom", "left"]])
def test_b_csv_reproduces_the_traces(sides, tmp_path):
    # the fit solves for the K traces on the domain's rim; the n = K + 8 hats
    # one layer out have traces V of full row rank, so the written b = V+ w
    # reproduces them
    res = run_experiment(validate_config({**FAST, "gamma_sides": sides}), tmp_path)
    r, state = res["result"], res["state"]
    hats = build_basis(state.grid)
    assert hats.n_boundary == state.partition.n_boundary + 8
    b = np.loadtxt(tmp_path / "b.csv", skiprows=1)
    assert b.shape == (hats.n_boundary,)
    traces = compute_base_solutions(hats, state.partition)
    assert np.abs(traces @ b - r.w[0]).max() <= 1e-13 * np.abs(r.w).max()


def test_only_run_builds_the_hats(monkeypatch, tmp_path):
    # the fit knows no hats: only run's writer of b.csv builds them, and it
    # reads b off u*, so no command samples their traces V or takes a QR of V
    calls, qr_rows = [], []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for name in ("build_basis", "compute_base_solutions"):
        monkeypatch.setattr(pipeline, name, spy(name, getattr(pipeline, name)))
    qr = np.linalg.qr

    def qr_spy(a, *args, **kwargs):
        qr_rows.append(a.shape[0])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr_spy)
    cfg = validate_config({**FAST, "eps_levels": [1e-1, 1e-2, 1e-3], "seeds": [1, 2]})
    pipeline.run_sweep(cfg, tmp_path / "sweep")
    pipeline.run_sweep(cfg)
    pipeline.run_tau(cfg, tmp_path / "tau")
    pipeline.run_tau(cfg)
    assert calls == []
    bare = pipeline.run_experiment(cfg)["summary"]
    assert calls == []
    written = pipeline.run_experiment(cfg, tmp_path / "run")["summary"]
    assert calls == ["build_basis"]
    assert written == bare
    # the fit's one QR is of the graph norm's 2m x m rows; Vᵀ has K + 8
    n_hats = build_basis(build_state(cfg).grid).n_boundary
    assert qr_rows and n_hats not in qr_rows


def test_sweep_peak_memory_is_a_few_level_stacks():
    # a level's fields are one (seeds, ny, nx) stack from the solve to its
    # errors, and it is dropped before the next level is fitted: the peak is
    # that stack, the solve's one scratch stack and the envelope's ratio
    # (3.4 stacks here; 6.3 with a copy per step and the last level kept)
    seeds = list(range(1, 33))
    cfg = resolve_config(preset="paper-sec5-one-side",
                         overrides={"h": 1 / 32, "eps_levels": [1e-1, 1e-2, 1e-3],
                                    "seeds": seeds})
    stack = len(seeds) * 33 * 33 * 8
    run_sweep(cfg)  # caches the DST tables
    tracemalloc.start()
    try:
        run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * stack
