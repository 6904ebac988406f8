"""Integration checks of the orchestration layer on a fast configuration."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import io as hio
from harmrec import pipeline, resolve_config, tikhonov, validate_config
from harmrec.basis import build_basis, compute_base_solutions
from harmrec.evaluate import auto_probe_nodes, envelope_check, pointwise_error, rate_fit
from harmrec.forward import add_noise, draw_noise, sample_exact
from harmrec.pipeline import build_state, run_experiment, run_sweep, run_tau
from harmrec.poisson import ScalarField
from harmrec.tikhonov import reconstruct, reconstruct_field

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
        draws = draw_noise([seed], fast_state.partition.m, cfg["noise_model"])
        data = add_noise(fast_state.clean_data, 0.02, draws)
        w = reconstruct(fast_state.system, data, cfg).w
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
    draws = draw_noise([1], fast_state.partition.m)
    data_big = add_noise(fast_state.clean_data, 0.1, draws)
    data_small = add_noise(fast_state.clean_data, 0.001, draws)
    cfg = fast_state.cfg
    a_big = cfg.alpha(data_big.level, fast_state.system.h)
    a_small = cfg.alpha(data_small.level, fast_state.system.h)
    assert a_big > a_small > 0


def test_sweep_matches_per_seed_evaluation():
    # the sweep's (seeds, ny, nx) error stack and its (level, seed) arrays
    # against one pointwise_error and envelope_check per (level, seed), bit
    # for bit; eps 2.0 has no envelope
    seeds = [1, 2, 3]
    levels = [0.1, 0.01, 0.001, 2.0]
    cfg = validate_config({**FAST, "eps_levels": levels, "seeds": seeds})
    sweep = run_sweep(cfg)
    state = build_state(cfg)
    nodes = auto_probe_nodes(state.tau)
    exact_field = sample_exact(cfg.exact_solution(), state.grid)
    c_fits, means, reg_norms = [], [], []
    m, model = state.partition.m, cfg["noise_model"]
    draws = np.vstack([draw_noise([s], m, model) for s in seeds])
    for lv in levels:
        result = reconstruct(state.system, add_noise(state.clean_data, lv, draws), cfg)
        reg_norms.append({"eps": lv, "reg_norm": float(np.mean(result.reg_norm))})
        mean = np.zeros(len(nodes))
        for seed, u_star in zip(seeds, reconstruct_field(result.w, state.system)):
            err = pointwise_error(ScalarField(state.grid, u_star), exact_field)
            mean += np.array([err.values[j, i] for i, j in nodes]) / len(seeds)
            if 0 < lv < 1:
                c_fits.append({"eps": lv, "seed": seed,
                               "c_fit": envelope_check(err, state.tau, lv)["c_fit"]})
        means.append(mean.tolist())
    assert sweep["envelope_c_fits"] == c_fits
    assert [p["err"] for p in sweep["probes"]] == means[-1]
    assert sweep["reg_norm_by_level"] == reg_norms
    assert [p["slope"] for p in sweep["probes"]] == [
        rate_fit([(lv, max(row[k], 1e-300)) for lv, row in zip(levels, means)])
        for k in range(len(nodes))]


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


@pytest.mark.parametrize("levels", [[1e-1, 1e-2, 1e-3], [2.0, 1e-1, 3e-2, 1e-2, 1e-3]],
                         ids=["3-levels", "5-levels"])
def test_run_and_sweep_share_one_noise_call(monkeypatch, levels):
    # one noise path: a sweep draws once and makes one add_noise call per
    # level, a run one of each, both through the names pipeline calls
    calls = []

    def spy(name):
        fn = getattr(pipeline, name)

        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for name in ("draw_noise", "add_noise"):
        monkeypatch.setattr(pipeline, name, spy(name))
    cfg = validate_config({**FAST, "eps_levels": levels, "seeds": [1, 2, 3]})
    run_sweep(cfg)
    assert calls == ["draw_noise"] + ["add_noise"] * len(levels)
    calls.clear()
    run_experiment(cfg)
    assert calls == ["draw_noise", "add_noise"]


@pytest.mark.parametrize("level", [0.0, -0.0])
def test_noiseless_run_writes_the_clean_data_bit_for_bit(level, tmp_path):
    # level 0 perturbs nothing: a truth of -0.0 keeps its sign in cauchy.csv
    # (adding 0 * draw would write 0), and both noise reports read level 0.0
    cfg = validate_config({**FAST, "exact": "constant", "exact_value": -0.0,
                           "noise_level": level})
    run_experiment(cfg, tmp_path)
    clean = build_state(cfg).clean_data
    rows = np.column_stack([clean.points, clean.f, clean.g]).tolist()
    expected = "x,y,f,g\n" + "".join("%.17g,%.17g,%.17g,%.17g\n" % tuple(r) for r in rows)
    text = (tmp_path / "cauchy.csv").read_text()
    assert text == expected
    assert all(line.split(",")[2] == "-0" for line in text.splitlines()[1:])
    noise = {"seed": 1, "model": "uniform", "realized_eps": 0.0}
    for name, key in (("cauchy.json", "noise_level"), ("summary.json", "level")):
        meta = json.loads((tmp_path / name).read_text())
        meta = meta.get("noise", meta)
        assert meta == {**noise, key: 0.0}
        assert math.copysign(1.0, meta[key]) == math.copysign(1.0, meta["realized_eps"]) == 1.0


@pytest.mark.parametrize("levels", [[1e-1, 1e-2, 1e-3], [2.0, 1e-1, 3e-2, 1e-2, 1e-3]],
                         ids=["3-levels", "5-levels"])
def test_sweep_solves_every_level_into_one_stack(monkeypatch, levels):
    # one (seeds, ny, nx) stack per sweep: every level's fields are solved
    # into it and come back in it, so no level allocates a stack of its own
    calls = []

    def spy(w, sys, out=None):
        got = reconstruct_field(w, sys, out=out)
        calls.append((out, got))
        return got

    monkeypatch.setattr(tikhonov, "reconstruct_field", spy)
    seeds = [1, 2, 3]
    cfg = validate_config({**FAST, "eps_levels": levels, "seeds": seeds})
    run_sweep(cfg)
    assert len(calls) == len(levels)
    stack = calls[0][0]
    assert isinstance(stack, np.ndarray)
    assert stack.shape == (len(seeds),) + build_state(cfg).grid.shape
    assert all(out is stack and got is stack for out, got in calls)


@settings(max_examples=20, deadline=None)
@given(model=st.sampled_from(["uniform", "gaussian"]),
       top=st.floats(0.02, 2.0),
       inner=st.lists(st.floats(0.011, 0.99), min_size=1, max_size=3, unique=True),
       seeds=st.lists(st.integers(min_value=-2**70, max_value=2**70), min_size=1,
                      max_size=5, unique_by=lambda s: s % 2**64))
def test_sweep_levels_fit_add_noise_data(model, top, inner, seeds):
    # each level's batch holds, row by row, the f and g that add_noise gives
    # each seed's own draw at that level, as in run, bit for bit, though the
    # sweep draws every seed at once
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
    state = build_state(cfg)
    assert [b.level for b in batches] == levels
    for batch in batches:
        rows = [add_noise(state.clean_data, batch.level,
                          draw_noise([s], state.partition.m, model)) for s in seeds]
        assert batch.f.tobytes() == np.vstack([r.f for r in rows]).tobytes()
        assert batch.g.tobytes() == np.vstack([r.g for r in rows]).tobytes()


def test_sweep_keys_every_level_apart(tmp_path):
    # two levels that agree to six significant digits still get an entry
    # each, and sweep.json lists them in config order, not as sorted keys
    levels = [0.1, 0.001, 1e-05, 0.0010000001]
    cfg = validate_config({**FAST, "eps_levels": levels, "seeds": [1, 2]})
    by_level = run_sweep(cfg, tmp_path)["reg_norm_by_level"]
    assert [entry["eps"] for entry in by_level] == levels
    written = json.loads((tmp_path / "sweep.json").read_text())["reg_norm_by_level"]
    assert written == by_level


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


def test_each_command_writes_its_grid_csvs_in_one_call(monkeypatch, tmp_path):
    # every grid CSV of a command lies on one grid, so one lockstep call
    # writes them all, and no other call writes a grid CSV
    calls = []
    lockstep = hio.write_field_csvs

    def spy(paths, fields):
        calls.append([Path(p).name for p in paths])
        lockstep(paths, fields)

    monkeypatch.setattr(hio, "write_field_csvs", spy)
    cfg = validate_config(FAST)
    pipeline.run_experiment(cfg, tmp_path / "run")
    pipeline.run_tau(cfg, tmp_path / "tau")
    grid_csvs = [sorted(p.name for p in (tmp_path / out).glob("*.csv")
                        if p.read_bytes().startswith(b"x,y,value\n"))
                 for out in ("run", "tau")]
    assert grid_csvs[0] == ["error.csv", "exact.csv", "tau.csv", "u_star.csv"]
    assert len(grid_csvs[1]) == len(cfg["tau_gamma_sets"])
    assert [sorted(names) for names in calls] == grid_csvs


def test_sweep_peak_memory_is_a_few_level_stacks():
    # a level's fields are one (seeds, ny, nx) stack from the solve to its
    # errors, and the next level solves into the same stack: the peak is
    # that stack, the solve's one scratch stack and the envelope's ratio
    # (3.6 stacks here; 6.3 with a copy per step and the last level kept)
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
