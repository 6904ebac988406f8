"""Flat experiment configuration: defaults, presets, validation.

A configuration is a flat JSON object.  Unknown keys are rejected; every key
has a default, a preset may override defaults, a config file overrides the
preset, and CLI flags override everything, one key at a time.  The output
directory is a runtime parameter, not part of the experiment config, so two
runs of one config into different directories emit byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .forward import Constant, ExactSolution, ExpCos, HarmonicPoly
from .grid import SIDES, Rect

DEFAULTS: dict = {
    "x0": 0.0,
    "y0": 0.0,
    "x1": 1.0,
    "y1": 1.0,
    "h": 1.0 / 64.0,
    "gamma_sides": ["bottom"],
    "padding_layers": 4,
    "basis_kind": "hat",
    "arcs_per_side": 1,
    "exact": "exp_cos",
    "exact_a": 4.0,
    "exact_shift": 0.2,
    "exact_value": 1.0,
    "exact_coeffs": [0.0, 0.0, 1.0],
    "noise_level": 0.01,
    "noise_model": "uniform",
    "seed": 1,
    "alpha_rule": "a_priori",
    "alpha_c": 1.0,
    "alpha_fixed": 1e-6,
    "reg_mode": "gram",
    "w_f": 1.0,
    "w_g": 1.0,
    "norm_order": 2,
    "solver": "direct",
    "solver_tol": 1e-10,
    "threshold": 0.5,
    "tau0": 0.49,
    "exclusion_band": 3,
    "eps_levels": [1e-1, 1e-2, 1e-3],
    "seeds": [1, 2, 3],
    "tau_gamma_sets": [
        ["bottom"],
        ["bottom", "top"],
        ["bottom", "left"],
        ["bottom", "top", "left"],
    ],
}

# Reference experiment presets: unit square, exp_cos(4, 0.2) truth, 1% noise,
# h = 1/64, one padding layer so the enlarged boundary carries 264 hats.
# alpha_c = 0.01 keeps the penalty-norm trend flat across noise levels while
# leaving the decay window open below the 1% level.
_SEC5_BASE = {
    "h": 1.0 / 64.0,
    "padding_layers": 1,
    "basis_kind": "hat",
    "exact": "exp_cos",
    "exact_a": 4.0,
    "exact_shift": 0.2,
    "noise_level": 0.01,
    "noise_model": "uniform",
    "seed": 1,
    "alpha_c": 0.01,
}

PRESETS: dict[str, dict] = {
    "paper-sec5-one-side": {**_SEC5_BASE, "gamma_sides": ["bottom"]},
    "paper-sec5-two-sides": {**_SEC5_BASE, "gamma_sides": ["bottom", "top"]},
}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict = field(repr=False)

    def __getitem__(self, key):
        return self.raw[key]

    def to_dict(self) -> dict:
        return dict(self.raw)

    @property
    def rect(self) -> Rect:
        r = self.raw
        return Rect(r["x0"], r["y0"], r["x1"], r["y1"])

    @property
    def tilde_rect(self) -> Rect:
        return self.rect.padded(self.raw["padding_layers"] * self.raw["h"])

    def exact_solution(self) -> ExactSolution:
        kind = self.raw["exact"]
        if kind == "exp_cos":
            return ExpCos(a=self.raw["exact_a"], shift=self.raw["exact_shift"])
        if kind == "harmonic_poly":
            return HarmonicPoly(coeffs=tuple(self.raw["exact_coeffs"]))
        if kind == "constant":
            return Constant(c=self.raw["exact_value"])
        raise ValidationError(f"unknown exact solution kind {kind!r}")


def _check_sides(value, key):
    if (not isinstance(value, (list, tuple)) or not value
            or not all(isinstance(s, str) for s in value)):
        raise ValidationError(f"{key} must be a nonempty list of side names")
    bad = set(value) - set(SIDES)
    if bad:
        raise ValidationError(f"{key} contains unknown side name(s): {sorted(bad)}")
    if len(set(value)) != len(value):
        raise ValidationError(f"{key} repeats a side")


def _is_number(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value)


def validate_config(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ValidationError(f"unknown config key(s): {sorted(unknown)}")
    merged = {**DEFAULTS, **raw}
    for key, default in DEFAULTS.items():
        kind = int if isinstance(default, int) else (int, float)
        if isinstance(default, (int, float)) and not _is_number(merged[key], kind):
            what = "an integer" if kind is int else "a finite number"
            raise ValidationError(f"{key} must be {what}, got {merged[key]!r}")

    if not (merged["x0"] < merged["x1"] and merged["y0"] < merged["y1"]):
        raise ValidationError("domain rectangle is degenerate")
    if merged["h"] <= 0:
        raise ValidationError("h must be positive")
    for axis, length in (("x", merged["x1"] - merged["x0"]),
                         ("y", merged["y1"] - merged["y0"])):
        n = length / merged["h"]
        if abs(n - round(n)) > 1e-9 * max(1.0, n) or round(n) < 2:
            raise ValidationError(
                f"h={merged['h']} must divide the {axis}-extent {length} "
                "into at least 2 intervals"
            )
    _check_sides(merged["gamma_sides"], "gamma_sides")
    if len(set(merged["gamma_sides"])) == 4:
        raise ValidationError("gamma_sides covering all four sides is degenerate")
    if merged["padding_layers"] < 1:
        raise ValidationError("padding_layers must be a positive integer")
    if merged["basis_kind"] not in ("hat", "indicator"):
        raise ValidationError(f"unknown basis_kind {merged['basis_kind']!r}")
    if merged["arcs_per_side"] < 1:
        raise ValidationError("arcs_per_side must be at least 1")
    if merged["exact"] not in ("exp_cos", "harmonic_poly", "constant"):
        raise ValidationError(f"unknown exact kind {merged['exact']!r}")
    coeffs = merged["exact_coeffs"]
    if not isinstance(coeffs, (list, tuple)) or not all(_is_number(c) for c in coeffs):
        raise ValidationError("exact_coeffs must be a list of finite numbers")
    if merged["noise_level"] < 0:
        raise ValidationError("noise_level cannot be negative")
    if merged["noise_model"] not in ("uniform", "gaussian"):
        raise ValidationError(f"unknown noise_model {merged['noise_model']!r}")
    if merged["alpha_rule"] not in ("a_priori", "fixed"):
        raise ValidationError(f"unknown alpha_rule {merged['alpha_rule']!r}")
    if merged["alpha_rule"] == "fixed" and merged["alpha_fixed"] <= 0:
        raise ValidationError("alpha_rule 'fixed' needs a positive alpha_fixed")
    if merged["reg_mode"] not in ("gram", "diagonal"):
        raise ValidationError(f"unknown reg_mode {merged['reg_mode']!r}")
    if merged["w_f"] < 0 or merged["w_g"] < 0 or (merged["w_f"] == 0 and merged["w_g"] == 0):
        raise ValidationError("w_f/w_g must be nonnegative and not both zero")
    if merged["norm_order"] not in (1, 2):
        raise ValidationError("norm_order must be 1 or 2")
    if merged["solver"] not in ("cg", "direct"):
        raise ValidationError(f"unknown solver {merged['solver']!r}")
    if merged["solver_tol"] <= 0:
        raise ValidationError("solver_tol must be positive")
    if not (0.0 < merged["threshold"] <= 1.0):
        raise ValidationError("threshold must lie in (0, 1]")
    if not (0.0 < merged["tau0"] < 1.0):
        raise ValidationError("tau0 must lie in (0, 1)")
    if merged["exclusion_band"] < 0:
        raise ValidationError("exclusion_band cannot be negative")
    levels, seeds = merged["eps_levels"], merged["seeds"]
    if not isinstance(levels, (list, tuple)) or not all(_is_number(e) and e > 0 for e in levels):
        raise ValidationError("eps_levels must be a list of positive numbers")
    if not (isinstance(seeds, (list, tuple)) and seeds
            and all(_is_number(s, int) for s in seeds)):
        raise ValidationError("seeds must be a nonempty list of integers")
    side_sets = merged["tau_gamma_sets"]
    if not isinstance(side_sets, (list, tuple)) or not side_sets:
        raise ValidationError("tau_gamma_sets must be a nonempty list of side lists")
    for sides in side_sets:
        _check_sides(sides, "tau_gamma_sets entry")
        if len(set(sides)) == 4:
            raise ValidationError("tau_gamma_sets entry covering all sides is degenerate")
    return ExperimentConfig(raw=merged)


def resolve_config(preset: str | None = None, config_path=None,
                   overrides: dict | None = None) -> ExperimentConfig:
    """defaults < preset < config file < overrides, then validate."""
    raw: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ValidationError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        raw.update(PRESETS[preset])
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        raw.update(loaded)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return validate_config(raw)
