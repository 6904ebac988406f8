"""Property tests of the CLI contract on generated configs.

Exit 0 means success, 2 a validation error and 3 a numerical error; every
failure prints one line of strict JSON, and every JSON artifact is strict.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmrec import (DEFAULTS, SIDES, ValidationError, boundary_partition, build_grid,
                     validate_config)
from harmrec.cli import main
from harmrec.config import _stacked_bytes, check_stacked_size, check_sweep_size

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(SIDES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.dictionaries(st.sampled_from(sorted(DEFAULTS)), json_values, max_size=4))
@example({"x1": 1e308})
@example({"x0": -1e308, "x1": 1e308})
@example({"h": 1 / 8192})  # the grid fits, the data block (4.3 GB) does not
def test_validate_config_returns_or_raises_validation_error(raw):
    # and so do the size checks that run and sweep add
    try:
        cfg = validate_config(raw)
        check_stacked_size(cfg)
        check_sweep_size(cfg)
    except ValidationError:
        pass


# The stacked guard is the fit's data block, 2m x K x 8 B, of the partition
# the fit builds, counted from the keys alone in floats; it bounds the
# system's m x m D1 too.  Extents run up to 20000 intervals, where
# validate_config still accepts the grid.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(2, 20000), st.integers(2, 20000),
       st.sampled_from([1 / 1024, 1 / 64, 0.1, 0.3, 1.0, 7.5]),
       st.integers(-50, 50), st.integers(-50, 50),
       st.lists(st.sampled_from(SIDES), min_size=1, max_size=3, unique=True))
@example(2, 2, 1 / 64, 0, 0, ["bottom"])
@example(2, 20000, 0.3, -50, 50, ["left"])
@example(20000, 20000, 1 / 1024, 0, 0, ["bottom", "right", "top"])
def test_stacked_guard_is_the_data_block(ix, iy, h, i0, j0, sides):
    x0, y0 = i0 * h, j0 * h
    cfg = validate_config({"x0": x0, "y0": y0, "x1": x0 + ix * h, "y1": y0 + iy * h,
                           "h": h, "gamma_sides": sides})
    part = boundary_partition(build_grid(cfg.rect, h), sides)
    assert (part.grid.nx, part.grid.ny) == (ix + 1, iy + 1)
    m, k = part.m, part.n_boundary
    assert _stacked_bytes(cfg.raw) == pytest.approx(8.0 * 2 * m * k, rel=1e-12)
    assert m <= k


SIDE_LISTS = [["bottom"], ["bottom", "top"], ["left"], ["bottom", "left", "top"],
              ["right", "top"], ["top"], ["bottom", "right"], []]

# h is always drawn, and the extents drawn with it keep every accepted
# config's grid at most 13 x 13 nodes (width <= 1.5, h >= 1/8), and the
# hats' grid around it at most 15 x 15.  Each key has at most one invalid
# value, so that about half the configs run.
configs = st.fixed_dictionaries({
    "h": st.sampled_from([1 / 8, 1 / 4, 0.5, 1 / 8, 1 / 4, 0.3]),
}, optional={
    "x0": st.sampled_from([0, -0.5, 0, 0.5, 0, -1e308]),
    "y0": st.sampled_from([0, -0.5, 0, 0.5, 0]),
    "x1": st.sampled_from([1, 0.5, 1, 1, 1e308]),
    "y1": st.sampled_from([1, 0.5, 1, 1, True]),
    "gamma_sides": st.sampled_from(SIDE_LISTS),
    "exact": st.sampled_from(["exp_cos", "harmonic_poly", "constant"]),
    "exact_a": st.sampled_from([2.0, 4.0, 800.0]),
    "exact_coeffs": st.lists(st.sampled_from([0, 1.5, -2]), max_size=4),
    "noise_level": st.sampled_from([0, 0.05, 0.01]),
    "noise_model": st.sampled_from(["uniform", "gaussian"]),
    "alpha_rule": st.sampled_from(["a_priori", "fixed"]),
    "alpha_fixed": st.sampled_from([1e-6, 1e-3, 1e-6, 1e-3, 0]),
    "w_f": st.sampled_from([1.0, 0.0, 1.0, 0.5]),
    "w_g": st.sampled_from([1.0, 0.0, 2.0, 1.0]),
    "threshold": st.sampled_from([0.5, 1.0, 0.25]),
    "eps_levels": st.lists(st.sampled_from([1e-1, 1e-2, 1e-3]), min_size=2, max_size=4),
    "seeds": st.lists(st.sampled_from([1, 2, -3, 7]), min_size=1, max_size=3),
    "tau_gamma_sets": st.lists(st.sampled_from(SIDE_LISTS[:-1]), min_size=1, max_size=3),
})


def _check_contract(command, raw) -> int:
    """Run the CLI on ``raw``; check what it leaves for its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=pytest.fail)
        else:
            text = err.getvalue()
            assert text.count("\n") == 1 and text.endswith("\n")
            error = json.loads(text, parse_constant=pytest.fail)["error"]
            assert error["type"] == ("validation" if code == 2 else "numerical")
        return code


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(["run", "tau", "sweep"]), configs)
def test_cli_contract_on_generated_configs(command, raw):
    _check_contract(command, raw)


# Keys that no longer exist: the penalty is always the factored smoothness
# norm, the normal difference always second order, the exponent field
# always the exact DST-I solve, the basis always the hats one layer
# around the domain, and the envelope is fitted at noise_level alone.
@pytest.mark.parametrize("command", ["run", "tau", "sweep"])
@pytest.mark.parametrize("raw", [{"reg_mode": "gram"}, {"reg_mode": "diagonal"},
                                 {"norm_order": 2}, {"norm_order": 1},
                                 {"solver": "cg"}, {"solver": "direct"},
                                 {"solver_tol": 1e-10}, {"basis_kind": "hat"},
                                 {"basis_kind": "indicator", "arcs_per_side": 3},
                                 {"arcs_per_side": 1}, {"padding_layers": 1},
                                 {"tau0": 0.49}])
def test_removed_keys_exit_2(command, raw):
    assert _check_contract(command, raw) == 2


# Side sets equal as sets would write the same tau_<sides>.* panel twice.
@pytest.mark.parametrize("command", ["run", "tau", "sweep"])
@pytest.mark.parametrize("sets", [[["bottom", "top"], ["top", "bottom"]],
                                  [["left"], ["bottom"], ["left"]]])
def test_duplicate_tau_side_sets_exit_2(command, sets):
    assert _check_contract(command, {"h": 1 / 4, "tau_gamma_sets": sets}) == 2
