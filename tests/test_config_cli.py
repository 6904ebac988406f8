import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from harmrec import DEFAULTS, PRESETS, ValidationError, resolve_config, validate_config
from harmrec.basis import build_basis, coefficients, compute_base_solutions
from harmrec.cli import main
from harmrec.config import (MAX_ARRAY_BYTES, _grid_bytes, _stacked_bytes, check_stacked_size,
                            check_sweep_size)
from harmrec.grid import Rect, boundary_partition, build_grid
from harmrec.pipeline import build_state
from harmrec.poisson import ScalarField
from harmrec.tikhonov import reconstruct, reconstruct_field
from oracles import clean_batch

FAST = {
    "h": 1 / 8,
    "exact": "exp_cos",
    "exact_a": 2.0,
    "exact_shift": 0.1,
    "noise_level": 0.05,
}


def test_defaults_validate():
    cfg = validate_config({})
    assert cfg.to_dict() == DEFAULTS


def test_readme_config_table_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n")[1]
    keys = set()
    for row in table.splitlines()[2:]:
        keys.update(k.strip(" `") for k in row.split("|")[1].split(","))
    assert keys == set(DEFAULTS)


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError, match="unknown config key"):
        validate_config({"grid_spacing": 0.1})


def test_bad_geometry_rejected_before_compute():
    with pytest.raises(ValidationError):
        validate_config({"h": 0.3})
    with pytest.raises(ValidationError):
        validate_config({"x0": 1.0, "x1": 0.0})
    with pytest.raises(ValidationError):
        validate_config({"gamma_sides": []})
    with pytest.raises(ValidationError):
        validate_config({"gamma_sides": ["bottom", "top", "left", "right"]})
    with pytest.raises(ValidationError):
        validate_config({"noise_model": "pink"})
    with pytest.raises(ValidationError):
        validate_config({"threshold": 0.0})


def test_presets_known_and_resolvable():
    for name in PRESETS:
        cfg = resolve_config(preset=name)
        assert cfg["h"] == 1 / 64
        assert cfg["noise_level"] == 0.01
    with pytest.raises(ValidationError, match="unknown preset"):
        resolve_config(preset="sec9")


def test_precedence_preset_config_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 5}))
    cfg = resolve_config(preset="paper-sec5-one-side", config_path=path,
                         overrides={"seed": 9})
    assert cfg["seed"] == 9
    cfg2 = resolve_config(preset="paper-sec5-one-side", config_path=path)
    assert cfg2["seed"] == 5


def _write_cfg(tmp_path, **extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**FAST, **extra}))
    return path


def test_cli_run_emits_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("u_star.csv", "error.csv", "exact.csv", "tau.csv",
                 "tau_contour.json", "b.csv", "cauchy.csv", "cauchy.json",
                 "summary.json", "exact.svg", "u_star.svg", "error.svg",
                 "tau.svg"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["h"] == 1 / 8
    assert summary["m"] == 9
    assert summary["noise"]["seed"] == 1


def test_cli_seed_override(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--seed", "77"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["noise"]["seed"] == 77
    assert summary["config"]["seed"] == 77


def test_cli_validation_failure_exit_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, h=0.3)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["type"] == "validation"


# config files that json.loads cannot take: not UTF-8, nested deeper than
# the parser's recursion limit, an integer past Python's 4300-digit limit
UNPARSABLE = [
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
    pytest.param(b"[" * 100000, id="deep-nesting"),
    pytest.param(b'{"seed": ' + b"9" * 5000 + b"}", id="5000-digit-int"),
]


def test_cli_missing_config_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["type"] == "validation"
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", "--config", str(broken), "--out", str(tmp_path / "o")]) == 2
    for case in UNPARSABLE:
        capsys.readouterr()
        broken.write_bytes(case.values[0])
        assert main(["run", "--config", str(broken), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "validation"


def test_cli_tau_emits_per_side_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, tau_gamma_sets=[["bottom"], ["bottom", "top"],
                                               ["bottom", "top", "left"]])
    out = tmp_path / "out"
    assert main(["tau", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "tau_bottom.csv").exists()
    assert (out / "tau_bottom-top.csv").exists()
    assert (out / "tau_bottom-left-top.svg").exists()
    summary = json.loads((out / "tau_summary.json").read_text())
    assert len(summary["panels"]) == 3
    centers = {tuple(p["sides"]): p["tau_center"] for p in summary["panels"]}
    assert abs(centers[("bottom",)] - 0.25) < 2e-3
    assert abs(centers[("bottom", "top")] - 0.5) < 2e-3
    assert abs(centers[("bottom", "left", "top")] - 0.75) < 2e-3


def test_cli_tau_rejects_all_sides(tmp_path):
    cfg = _write_cfg(tmp_path, tau_gamma_sets=[["bottom", "top", "left", "right"]])
    assert main(["tau", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cli_sweep_needs_three_levels(tmp_path):
    cfg = _write_cfg(tmp_path, eps_levels=[0.1])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cli_sweep_emits_probe_table(tmp_path):
    cfg = _write_cfg(tmp_path, eps_levels=[1e-1, 1e-2, 1e-3], seeds=[1, 2])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "probes.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,tau,err,slope"
    assert len(lines) == 13
    sweep = json.loads((out / "sweep.json").read_text())
    assert "spearman_slope_tau" in sweep
    assert len(sweep["envelope_c_fits"]) == 3 * 2


@pytest.mark.parametrize("command,extra", [
    ("run", {}),
    ("tau", {}),
    ("sweep", {"eps_levels": [1e-1, 1e-2, 1e-3], "seeds": [1, 2]}),
], ids=["run", "tau", "sweep"])
def test_summary_json_sorted_and_deterministic(tmp_path, command, extra):
    # two runs of one command into two directories write the same files,
    # byte for byte
    cfg = _write_cfg(tmp_path, **extra)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main([command, "--config", str(cfg), "--out", str(out1)]) == 0
    assert main([command, "--config", str(cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert len(names) == {"run": 13, "tau": 13, "sweep": 2}[command]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_numeric_keys_type_checked(tmp_path, capsys):
    for bad in ({"h": "x"}, {"seed": True}, {"noise_level": None},
                {"h": float("nan")}, {"alpha_c": float("inf")},
                {"seed": 1.5}, {"eps_levels": [0.1, "a", 0.01]},
                {"seeds": [1, 2.5]}):
        with pytest.raises(ValidationError, match="must be"):
            validate_config(bad)
    assert validate_config({"x1": 2, "h": 0.5}).to_dict()["x1"] == 2
    cfg = _write_cfg(tmp_path, h="x")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"


def test_cli_sweep_rejects_empty_seeds(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, eps_levels=[1e-1, 1e-2, 1e-3], seeds=[])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
    assert not (out / "sweep.json").exists()


def test_cli_non_finite_json_artifact_exit_3(tmp_path, capsys, monkeypatch):
    import harmrec.evaluate

    monkeypatch.setattr(harmrec.evaluate, "spearman_rank", lambda *a: float("nan"))
    cfg = _write_cfg(tmp_path, eps_levels=[1e-1, 1e-2, 1e-3], seeds=[1])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "numerical" and "sweep.json" in error["message"]
    assert not (out / "sweep.json").exists()


def test_cli_run_non_finite_summary_exit_3(tmp_path, capsys, monkeypatch):
    import harmrec.evaluate

    monkeypatch.setattr(harmrec.evaluate, "reliability_summary",
                        lambda *a: {"median_ratio": float("nan")})
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_cfg(tmp_path)), "--out", str(out)]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "numerical" and "summary.json" in error["message"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_non_finite_fitted_field_exit_3(tmp_path, capsys, monkeypatch, command):
    # a NaN trace makes a non-finite batch of fields: the solve's one check
    # raises before any artifact is written
    import harmrec.tikhonov as tik

    solve = tik._StandardForm.solve

    def poisoned(self, f, g, alpha):
        w, reg = solve(self, f, g, alpha)
        w = w.copy()
        w[-1, 0] = np.nan
        return w, reg

    monkeypatch.setattr(tik._StandardForm, "solve", poisoned)
    cfg = _write_cfg(tmp_path, eps_levels=[1e-1, 1e-2, 1e-3], seeds=[1, 2])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "numerical", "message": "field contains non-finite values"}
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_alpha_below_the_precision_floor_exit_3(tmp_path, capsys, command):
    # a fixed alpha far below 16 eps s_1^2 is beyond what the fit resolves:
    # a numerical failure before any artifact is written
    cfg = _write_cfg(tmp_path, alpha_rule="fixed", alpha_fixed=1e-300)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "numerical" and "precision floor" in error["message"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_run_numerical_failure_leaves_no_artifacts(tmp_path, capsys):
    # exp(400 x) overflows the fit: the run must fail before writing anything
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exact_a": 400, "h": 0.125}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "numerical"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_overflow_is_numerical_exit_3(tmp_path, capsys, command):
    # exp(800 x) overflows to a non-finite field: a numerical failure, not a
    # validation one, although the config is valid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exact_a": 800, "h": 0.125}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "numerical"
    assert not out.exists() or not any(out.iterdir())


# check is no command, with or without flags; tau and sweep read no config
# seed, so they take no flag for it
@pytest.mark.parametrize("argv", [["run", "--threads", "2"], ["run", "--bogus"],
                                  ["run", "--seed", "x"], ["frob"], ["check"],
                                  ["check", "--config", "c.json"], ["tau", "--seed", "5"],
                                  ["sweep", "--seed", "5"]])
def test_cli_bad_flags_print_json_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err, parse_constant=pytest.fail)["error"]
    assert error["type"] == "validation"


@pytest.mark.parametrize("command, last", [("run", "summary.json"),
                                           ("tau", "tau_summary.json"),
                                           ("sweep", "sweep.json")])
def test_cli_unwritable_artifact_exit_2(tmp_path, capsys, command, last):
    # a directory where the command's last artifact goes
    out = tmp_path / "out"
    (out / last).mkdir(parents=True)
    argv = [command, "--config", str(_write_cfg(tmp_path)), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err, parse_constant=pytest.fail)["error"]
    assert error["type"] == "validation" and last in error["message"]


@pytest.mark.parametrize("command, code", [("run", 2), ("sweep", 2), ("tau", 0)])
def test_cli_alpha_underflow(tmp_path, capsys, command, code):
    # alpha_c = 5e-324 passes validation, but alpha_c (eps^2 + h^2) underflows
    # to 0: run and sweep reject it when they resolve alpha, before writing
    # anything; tau never resolves alpha
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "alpha_c": 5e-324}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.count("\n") == 1
        error = json.loads(err, parse_constant=pytest.fail)["error"]
        assert error == {"type": "validation",
                         "message": "resolved alpha must be positive, got 0.0"}
        assert not out.exists()
    else:
        assert err == "" and (out / "tau_summary.json").exists()


@pytest.mark.parametrize("command", ["run", "tau", "sweep"])
@pytest.mark.parametrize("text", [
    '{"tau_gamma_sets": 5}',
    '{"exact": "harmonic_poly", "exact_coeffs": "ab"}',
    '{"exact": "harmonic_poly", "exact_coeffs": [0, 1e400]}',
    '{"gamma_sides": ["bottom", [1]]}',
    '{"x1": 1e308}',
    '{"x0": -1e308, "x1": 1e308}',
    *UNPARSABLE,
])
def test_cli_bad_list_keys_exit_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
    assert not out.exists()


def _expect_size_error(tmp_path, capsys, command, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err, parse_constant=pytest.fail)["error"]
    assert error["type"] == "validation" and "GB limit" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "tau", "sweep"])
def test_cli_rejects_unbuildable_grid_exit_2(tmp_path, capsys, command):
    _expect_size_error(tmp_path, capsys, command, {"x1": 1e300})


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("raw", [
    {"x1": 256.0},  # the data block: 2m = 32770 rows x K = 32896, 8.6 GB
    {"h": 1 / 8192},  # the data block: 2m = 16386 x K = 32768, 4.3 GB; one field 0.54 GB
    {"x1": 150.0, "gamma_sides": ["bottom", "top"]},  # 2m = 38404 x K = 19328, 5.9 GB
])
def test_cli_rejects_oversized_stack_exit_2(tmp_path, capsys, command, raw):
    _expect_size_error(tmp_path, capsys, command, raw)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_rejects_stacked_matrix_over_limit_exit_2(tmp_path, capsys, command):
    # every grid array would fit (2.1 GB), the data block would not (8.6 GB)
    r = validate_config({"x1": 256.0}).raw
    assert _grid_bytes(r) < MAX_ARRAY_BYTES < _stacked_bytes(r)
    _expect_size_error(tmp_path, capsys, command, {"x1": 256.0})


def test_arrays_over_limit_rejected_from_the_config_alone():
    # one field is 0.72 MB, but the solvers' DST-I matrix of the long side
    # would be 29999^2 x 8 B, 7.2 GB; nothing is solved here
    with pytest.raises(ValidationError, match="sine-transform matrix of the grid"):
        validate_config({"x1": 3000.0, "y1": 0.2, "h": 0.1})
    # and for the fit: at h = 1/8192 one field is 0.54 GB, but the data
    # block would be 16386 x 32768 x 8 B, 4.3 GB
    cfg = validate_config({"h": 1 / 8192})
    assert _grid_bytes(cfg.raw) < 1e9
    with pytest.raises(ValidationError, match="largest array of the fit"):
        check_stacked_size(cfg)
    # a sweep level's 500 fields of 1025 x 1025 nodes are 4.2 GB; 400 are 3.4 GB
    with pytest.raises(ValidationError, match="500 fields"):
        check_sweep_size(validate_config({"h": 1 / 1024, "seeds": list(range(500))}))
    check_sweep_size(validate_config({"h": 1 / 1024, "seeds": list(range(400))}))


def test_cli_tau_builds_no_stack(tmp_path, capsys, monkeypatch):
    # under a 0.1 MB limit every array of the grid fits (34 kB) and the
    # data block (130 x 256 x 8 B, 0.27 MB) does not: run stops before its
    # build, while tau, which fits nothing, runs
    monkeypatch.setattr("harmrec.config.MAX_ARRAY_BYTES", 1e5)
    raw = {"tau_gamma_sets": [["bottom"]]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "largest array of the fit" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not (tmp_path / "run").exists()
    assert main(["tau", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "tau_bottom.svg").exists()


@pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 64])
def test_traces_keep_full_rank_at_the_padding_bound(h):
    # one layer of hats, the only padding: V keeps full row rank, so that
    # b = V+ w reproduces the fitted traces, which b.csv promises
    grid = build_grid(Rect(0, 0, 1, 1), h)
    part = boundary_partition(grid, ["bottom"])
    traces = compute_base_solutions(build_basis(grid), part)
    assert np.linalg.matrix_rank(traces) == part.n_boundary


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_validate_at_h_256(preset):
    cfg = resolve_config(preset=preset, overrides={"h": 1 / 256})
    # the data block: 2m = 514 or 1028 rows by K = 1024 rim nodes
    two_m = {"paper-sec5-one-side": 514, "paper-sec5-two-sides": 1028}[preset]
    assert _stacked_bytes(cfg.raw) == 8.0 * two_m * 1024
    check_stacked_size(cfg)


@pytest.mark.parametrize("extra", [
    {"h": 0.25},
    {"h": 0.125, "x1": 1.5, "y0": -0.25},
    {"h": 0.125, "x1": 0.25},  # the narrowest grid, 3 nodes across
    {"h": 0.25, "x1": 3.0, "gamma_sides": ["bottom", "top"]},  # 2m > K
    {"h": 0.125, "x1": 1.5, "gamma_sides": ["left", "bottom", "right"]},
    {"h": 0.125, "y1": 1.5, "gamma_sides": ["top", "left"]},
])
def test_stack_size_estimate_bounds_the_stack(extra, monkeypatch):
    # check_stacked_size's estimate, the data block, bounds every array the
    # build, the fit and b allocate: the system, every input and output of
    # their eigendecompositions, QRs and stacks (the Gram matrix among
    # them), and the factorisation kept on the system with M's two factors
    cfg = validate_config(extra)
    sizes = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            parts = [*args, *(args[0] if fn is np.vstack else []),
                     *(out if isinstance(out, tuple) else [out])]
            sizes.extend(a.nbytes for a in parts if isinstance(a, np.ndarray))
            return out
        return wrapped

    for mod, name in ((np, "vstack"), (np.linalg, "eigh"), (np.linalg, "qr")):
        monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
    state = build_state(cfg)
    sys = state.system
    result = reconstruct(sys, clean_batch(state.clean_data), cfg)
    u_star, = reconstruct_field(result.w, sys)
    b = coefficients(build_basis(state.grid), ScalarField(state.grid, u_star))
    fit, = sys._fits.values()
    held = [sys.A, sys.B, sys.D1, fit.block, fit.lf, fit.lg, fit.root, fit.lam, fit.left,
            fit.right, b]
    sizes += [a.nbytes for a in held]
    assert len(sizes) > len(held)
    assert max(sizes) <= _stacked_bytes(cfg.raw)


def test_cli_sweep_too_coarse_for_probes_exit_2(tmp_path, capsys):
    # at h = 1/4 the 3-layer probe margin leaves no interior node
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 0.25}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "validation" and "too coarse" in error["message"]
    assert not out.exists()


def test_library_and_cli_import_no_scipy():
    # scipy is a test-only dependency: the library and its CLI must start on
    # numpy alone (scipy.stats alone takes about a second to import)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, harmrec.pipeline, harmrec.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def _cli_stderr_line(tmp_path, command, raw, out=None):
    """Run the CLI in a fresh process on config ``raw``; return its exit code
    and its stderr, checked to be exactly one strict-JSON error line."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out" if out is None else out
    proc = subprocess.run(
        [sys.executable, "-m", "harmrec.cli", command, "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
    assert not out.is_dir() or not any(out.iterdir())
    return proc.returncode, json.loads(proc.stderr, parse_constant=pytest.fail)["error"]


def test_cli_zero_truth_sweep_prints_only_its_error(tmp_path):
    # zero truth: every fit is zero, so the penalty norm's log-slope is
    # undefined and the slopes are constant; no library warning may reach
    # stderr ahead of the one JSON line
    code, error = _cli_stderr_line(tmp_path, "sweep", {
        "exact": "constant", "exact_value": 0.0, "h": 1 / 16})
    assert code == 3
    assert error["type"] == "numerical" and "penalty norm" in error["message"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("exact_a", [400, 800])
def test_cli_overflow_prints_only_its_error(tmp_path, command, exact_a):
    # exp(a x) overflows (a = 800) or its norms do (a = 400): numpy's
    # RuntimeWarnings must not reach stderr ahead of the one JSON line
    code, error = _cli_stderr_line(tmp_path, command, {
        "exact_a": exact_a, "h": 0.125})
    assert code == 3 and error["type"] == "numerical"


@pytest.mark.parametrize("command", ["run", "tau", "sweep"])
@pytest.mark.parametrize("sub", [False, True])
def test_cli_out_that_cannot_be_a_directory_exit_2(tmp_path, command, sub):
    # --out names a regular file, or a path under one: one JSON line, exit 2,
    # the file untouched and nothing else written
    blocker = tmp_path / "out"
    blocker.write_text("keep\n")
    code, error = _cli_stderr_line(tmp_path, command,
                                   {**FAST, "h": 1 / 16, "tau_gamma_sets": [["bottom"]]},
                                   blocker / "sub" if sub else blocker)
    assert code == 2
    assert error["type"] == "validation" and "output directory" in error["message"]
    assert blocker.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]


def test_cli_repeated_eps_level_exit_2(tmp_path, capsys):
    # a repeated level would count every seed's error twice at that level
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "h": 1 / 16, "seeds": [1, 2],
                               "eps_levels": [0.1, 0.01, 0.001, 0.001]}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "validation" and "eps_levels" in error["message"]
    assert not out.exists()


# rng reduces a seed mod 2^64, so seeds equal there draw the same noise.
@pytest.mark.parametrize("command", ["run", "tau", "sweep"])
@pytest.mark.parametrize("seeds", [[1, 1, 2], [0, 2**70, 3], [-1, 2**64 - 1, 5]])
def test_cli_coinciding_seeds_exit_2(tmp_path, capsys, command, seeds):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "seeds": seeds}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err, parse_constant=pytest.fail)["error"]
    assert error["type"] == "validation" and "seeds" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("command, raw, message", [
    ("run", {"alpha_c": -1}, "alpha_c"),
    ("sweep", {"alpha_c": 0}, "alpha_c"),
    ("sweep", {"eps_levels": [0.1, 0.05, 0.02]}, "two decades"),
    ("sweep", {"h": 1 / 1024, "seeds": list(range(500))}, "GB limit"),
])
def test_cli_fit_only_inputs_fail_before_the_build(tmp_path, capsys, monkeypatch,
                                                   command, raw, message):
    # inputs only the fit or the sweep reads are still rejected before the
    # geometry is built
    import harmrec.pipeline as pipeline

    builds = []
    monkeypatch.setattr(pipeline, "build_state", lambda cfg: builds.append(cfg))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, **raw}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "validation" and message in error["message"]
    assert builds == []
