import json
from pathlib import Path

import pytest

from harmrec import DEFAULTS, PRESETS, ValidationError, resolve_config, validate_config
from harmrec.basis import build_basis, compute_base_solutions
from harmrec.cli import main
from harmrec.config import MAX_ARRAY_BYTES, _stack_bytes

FAST = {
    "h": 1 / 8,
    "padding_layers": 1,
    "exact": "exp_cos",
    "exact_a": 2.0,
    "exact_shift": 0.1,
    "noise_level": 0.05,
    "solver": "direct",
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


def test_cli_missing_config_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["type"] == "validation"
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", "--config", str(broken), "--out", str(tmp_path / "o")]) == 2


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


def test_cli_check_passes():
    assert main(["check"]) == 0


def test_summary_json_sorted_and_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("summary.json", "u_star.csv", "tau.svg", "tau_contour.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_numeric_keys_type_checked(tmp_path, capsys):
    for bad in ({"h": "x"}, {"seed": True}, {"noise_level": None},
                {"h": float("nan")}, {"alpha_c": float("inf")},
                {"padding_layers": 1.5}, {"eps_levels": [0.1, "a", 0.01]},
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_run_numerical_failure_leaves_no_artifacts(tmp_path, capsys):
    # exp(400 x) overflows the fit: the run must fail before writing anything
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exact_a": 400, "h": 0.125, "padding_layers": 1}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "numerical"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_overflow_is_numerical_exit_3(tmp_path, capsys, command):
    # exp(800 x) overflows to a non-finite field: a numerical failure, not a
    # validation one, although the config is valid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exact_a": 800, "h": 0.125, "padding_layers": 1}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "numerical"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [["run", "--threads", "2"], ["run", "--bogus"],
                                  ["run", "--seed", "x"], ["frob"]])
def test_cli_bad_flags_print_json_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err, parse_constant=pytest.fail)["error"]
    assert error["type"] == "validation"


@pytest.mark.parametrize("command", ["run", "tau", "sweep"])
@pytest.mark.parametrize("text", [
    '{"tau_gamma_sets": 5}',
    '{"exact": "harmonic_poly", "exact_coeffs": "ab"}',
    '{"exact": "harmonic_poly", "exact_coeffs": [0, 1e400]}',
    '{"gamma_sides": ["bottom", [1]]}',
    '{"x1": 1e308}',
    '{"x0": -1e308, "x1": 1e308}',
])
def test_cli_bad_list_keys_exit_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
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
    {"x1": 64.0},  # a 4105 x 73 enlarged grid, about 20 GB of stack
    {"padding_layers": 10**308},
    {"basis_kind": "indicator", "arcs_per_side": 10**308, "padding_layers": 10**308},
])
def test_cli_rejects_oversized_stack_exit_2(tmp_path, capsys, command, raw):
    _expect_size_error(tmp_path, capsys, command, raw)


def test_cli_tau_builds_no_stack(tmp_path):
    # about 4.5 GB of stack that tau never builds
    raw = {"h": 1 / 512, "tau_gamma_sets": [["bottom"]]}
    assert _stack_bytes(validate_config(raw).raw) > MAX_ARRAY_BYTES
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["tau", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "tau_bottom.svg").exists()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_validate_at_h_256(preset):
    cfg = resolve_config(preset=preset, overrides={"h": 1 / 256})
    assert 0.5e9 < _stack_bytes(cfg.raw) < 0.6e9 < MAX_ARRAY_BYTES


@pytest.mark.parametrize("extra", [
    {"h": 0.25},
    {"h": 0.125, "x1": 1.5, "y0": -0.25, "padding_layers": 2},
    {"h": 0.125, "basis_kind": "indicator", "arcs_per_side": 3},
    {"h": 0.25, "basis_kind": "indicator", "arcs_per_side": 100},
])
def test_stack_size_estimate_bounds_the_stack(extra):
    cfg = validate_config(extra)
    basis = build_basis(cfg.tilde_rect, cfg["h"], cfg["basis_kind"],
                        omega_rect=cfg.rect, arcs_per_side=cfg["arcs_per_side"])
    nbytes = compute_base_solutions(basis).fields.nbytes
    if cfg["basis_kind"] == "hat":
        assert _stack_bytes(cfg.raw) == pytest.approx(nbytes, rel=1e-12)
    else:
        assert nbytes <= _stack_bytes(cfg.raw)
