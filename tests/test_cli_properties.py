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

from harmrec import DEFAULTS, SIDES, ValidationError, validate_config
from harmrec.cli import main
from harmrec.config import check_stacked_size

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
@example({"padding_layers": 10**308})
@example({"basis_kind": "indicator", "arcs_per_side": 10**308,
          "padding_layers": 10**308})
def test_validate_config_returns_or_raises_validation_error(raw):
    # and so does the rows-size check that run and sweep add
    try:
        check_stacked_size(validate_config(raw))
    except ValidationError:
        pass


SIDE_LISTS = [["bottom"], ["bottom", "top"], ["left"], ["bottom", "left", "top"],
              ["right", "top"], ["top"], ["bottom", "right"], []]

# h and padding_layers are always drawn, and the extents drawn with them keep
# every accepted config's enlarged grid at most 17 x 17 nodes (width <= 1.5,
# h >= 1/8, padding <= 2).  Each key has at most one invalid value, so that
# about half the configs run.
configs = st.fixed_dictionaries({
    "h": st.sampled_from([1 / 8, 1 / 4, 0.5, 1 / 8, 1 / 4, 0.3]),
    "padding_layers": st.sampled_from([1, 2, 1, 2, 1, 0]),
}, optional={
    "x0": st.sampled_from([0, -0.5, 0, 0.5, 0, -1e308]),
    "y0": st.sampled_from([0, -0.5, 0, 0.5, 0]),
    "x1": st.sampled_from([1, 0.5, 1, 1, 1e308]),
    "y1": st.sampled_from([1, 0.5, 1, 1, True]),
    "gamma_sides": st.sampled_from(SIDE_LISTS),
    "basis_kind": st.sampled_from(["hat", "indicator", "hat", "indicator", "spline"]),
    "arcs_per_side": st.sampled_from([1, 2, 3]),
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
    "tau0": st.sampled_from([0.49, 0.9]),
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
# norm, the normal difference always second order, and the exponent field
# always the exact DST-I solve.
@pytest.mark.parametrize("command", ["run", "tau", "sweep"])
@pytest.mark.parametrize("raw", [{"reg_mode": "gram"}, {"reg_mode": "diagonal"},
                                 {"norm_order": 2}, {"norm_order": 1},
                                 {"solver": "cg"}, {"solver": "direct"},
                                 {"solver_tol": 1e-10}])
def test_removed_keys_exit_2(command, raw):
    assert _check_contract(command, raw) == 2


# Side sets equal as sets would write the same tau_<sides>.* panel twice.
@pytest.mark.parametrize("command", ["run", "tau", "sweep"])
@pytest.mark.parametrize("sets", [[["bottom", "top"], ["top", "bottom"]],
                                  [["left"], ["bottom"], ["left"]]])
def test_duplicate_tau_side_sets_exit_2(command, sets):
    assert _check_contract(command, {"h": 1 / 4, "tau_gamma_sets": sets}) == 2
