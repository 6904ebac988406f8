"""Flat experiment configuration: defaults, presets, validation.

A configuration is a flat JSON object.  Unknown keys are rejected; every key
has a default, a preset may override defaults, a config file overrides the
preset, and CLI flags override everything, one key at a time.  The output
directory is a runtime parameter, not part of the experiment config, so two
runs of one config into different directories emit byte-identical artifacts.
It is also the fit's settings: ``alpha(eps, h)`` and ``data_weights``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .forward import Constant, ExactSolution, ExpCos, HarmonicPoly
from .grid import SIDES, Rect, boundary_counts, build_grid


def _finite(value, kind=(int, float)) -> bool:
    """A number of ``kind`` (never a bool) whose float value is finite."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _number(what: str, test=lambda v: True, kind=(int, float)):
    return what, lambda v: _finite(v, kind) and test(v)


def _one_of(*choices):
    return f"one of {list(choices)}", lambda v: v in choices


def _list_of(test, nonempty: bool = False):
    return lambda v: (isinstance(v, (list, tuple)) and (bool(v) or not nonempty)
                      and all(test(x) for x in v))


def _side_list(value) -> bool:
    """Distinct known side names, at least one and not all four."""
    return (_list_of(lambda s: isinstance(s, str) and s in SIDES)(value)
            and 0 < len(set(value)) == len(value) < len(SIDES))


_SIDE_LIST = ("a nonempty list of distinct side names, not all four", _side_list)
_NUMBER = _number("a finite number")
_NONNEGATIVE = _number("a nonnegative number", lambda v: v >= 0)

# key -> (default, (what the value must be, test)).  The rules joining several
# keys (rectangle, spacing and grid size, alpha_fixed, alpha_c, w_f/w_g) are in
# validate_config.
_KEYS: dict = {
    "x0": (0.0, _NUMBER),
    "y0": (0.0, _NUMBER),
    "x1": (1.0, _NUMBER),
    "y1": (1.0, _NUMBER),
    "h": (1.0 / 64.0, _number("a positive number", lambda v: v > 0)),
    "gamma_sides": (["bottom"], _SIDE_LIST),
    "exact": ("exp_cos", _one_of("exp_cos", "harmonic_poly", "constant")),
    "exact_a": (4.0, _NUMBER),
    "exact_shift": (0.2, _NUMBER),
    "exact_value": (1.0, _NUMBER),
    "exact_coeffs": ([0.0, 0.0, 1.0], ("a list of finite numbers", _list_of(_finite))),
    "noise_level": (0.01, _NONNEGATIVE),
    "noise_model": ("uniform", _one_of("uniform", "gaussian")),
    "seed": (1, _number("an integer", kind=int)),
    "alpha_rule": ("a_priori", _one_of("a_priori", "fixed")),
    "alpha_c": (1.0, _NUMBER),
    "alpha_fixed": (1e-6, _NUMBER),
    "w_f": (1.0, _NONNEGATIVE),
    "w_g": (1.0, _NONNEGATIVE),
    "threshold": (0.5, _number("a number in (0, 1]", lambda v: 0 < v <= 1)),
    "eps_levels": ([1e-1, 1e-2, 1e-3], ("a list of distinct positive numbers", lambda v: (
        _list_of(lambda e: _finite(e) and e > 0)(v) and len(set(v)) == len(v)))),
    "seeds": ([1, 2, 3], ("a nonempty list of integers, distinct modulo 2^64", lambda v: (
        _list_of(lambda s: _finite(s, int), nonempty=True)(v)
        and len({s % 2**64 for s in v}) == len(v)))),
    "tau_gamma_sets": (
        [["bottom"], ["bottom", "top"], ["bottom", "left"], ["bottom", "top", "left"]],
        (f"a nonempty list of side lists, no two the same set, each {_SIDE_LIST[0]}",
         lambda v: (_list_of(_side_list, nonempty=True)(v)
                    and len({frozenset(s) for s in v}) == len(v))),
    ),
}

DEFAULTS: dict = {key: default for key, (default, _) in _KEYS.items()}

# Largest dense array a config may ask for: one field or one sine-transform
# matrix of the domain grid (checked by validate_config, so for every
# command); the largest array of a build and a fit (checked by
# check_stacked_size, so only where there is a fit); and a sweep level's
# stack of fields, one per seed (checked by check_sweep_size).  The presets'
# largest arrays take 8.4 MB at h = 1/256.
MAX_ARRAY_BYTES = 4e9


def _nodes(r: dict) -> tuple[float, float]:
    """Node counts along x and y of the domain grid, from the keys alone;
    floats, so that no extent or count overflows."""
    return ((r["x1"] - r["x0"]) / r["h"] + 1, (r["y1"] - r["y0"]) / r["h"] + 1)


def _grid_bytes(r: dict) -> float:
    """8 B times the larger of one field on the domain grid and the solvers'
    DST-I matrix of its longer side, (max(nx, ny) - 2)^2."""
    nx, ny = _nodes(r)
    side = max(nx, ny) - 2
    return 8.0 * max(nx * ny, side * side)


def _stacked_bytes(r: dict) -> float:
    """The largest array of a build and a fit, 8 B an entry: the data block
    and the rows B is built from, 2m x K (m Γ nodes, K on the domain's rim).
    The system's A, B and D1 (m rows, m <= K), the standard form's Gram
    matrix and its eigenvectors (min(2m, K) square), its factors of M in
    those eigen-coordinates (at most 2m x K) and run's b (K + 8 values) are
    no larger."""
    m, k = boundary_counts(*_nodes(r), r["gamma_sides"])
    return 8.0 * 2 * m * k


def _check_size(what: str, size: float) -> None:
    if not size <= MAX_ARRAY_BYTES:
        raise ValidationError(
            f"{what} would need {size / 1e9:.3g} GB, over the "
            f"{MAX_ARRAY_BYTES / 1e9:g} GB limit")


# Reference experiment presets: unit square, exp_cos(4, 0.2) truth, 1% noise,
# h = 1/64, so that the fit solves for the 256 traces on the rim.
# alpha_c = 0.01 keeps the penalty-norm trend flat across noise levels while
# leaving the decay window open below the 1% level.
_SEC5_BASE = {
    "h": 1.0 / 64.0,
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

    def exact_solution(self) -> ExactSolution:
        kind = self.raw["exact"]
        if kind == "exp_cos":
            return ExpCos(a=self.raw["exact_a"], shift=self.raw["exact_shift"])
        if kind == "harmonic_poly":
            return HarmonicPoly(coeffs=tuple(self.raw["exact_coeffs"]))
        if kind == "constant":
            return Constant(c=self.raw["exact_value"])
        raise ValidationError(f"unknown exact solution kind {kind!r}")

    @property
    def data_weights(self) -> tuple[float, float]:
        """(w_f, w_g), the fit's weights of the Dirichlet and Neumann data."""
        return self.raw["w_f"], self.raw["w_g"]

    def alpha(self, eps: float, h: float) -> float:
        """The fit's regularization weight at noise level eps and spacing h:
        alpha_fixed, or alpha_c * (eps^2 + h^2) under the a-priori rule.  The
        basis truncation term of the full rule is not observable, so it is
        dropped and compensated by tying the basis size to h in the presets.
        A tiny alpha_c can still underflow to alpha = 0, rejected here."""
        if eps < 0:
            raise ValidationError(f"need eps >= 0, got eps={eps}")
        if self.raw["alpha_rule"] == "fixed":
            alpha = float(self.raw["alpha_fixed"])
        else:
            alpha = self.raw["alpha_c"] * (eps * eps + h * h)
        if alpha <= 0:
            raise ValidationError(f"resolved alpha must be positive, got {alpha}")
        return alpha


def validate_config(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ValidationError(f"unknown config key(s): {sorted(unknown)}")
    merged = {**DEFAULTS, **raw}
    for key, (_, (what, test)) in _KEYS.items():
        if not test(merged[key]):
            raise ValidationError(f"{key} must be {what}, got {merged[key]!r}")
    cfg = ExperimentConfig(raw=merged)
    rect = cfg.rect  # a degenerate rectangle is reported before its size
    _check_size("one field or sine-transform matrix of the grid", _grid_bytes(merged))
    grid = build_grid(rect, merged["h"])
    if min(grid.nx, grid.ny) < 3:
        raise ValidationError(
            f"h={merged['h']} must divide each extent into at least 2 intervals")
    if merged["alpha_rule"] == "fixed" and merged["alpha_fixed"] <= 0:
        raise ValidationError("alpha_rule 'fixed' needs a positive alpha_fixed")
    if merged["alpha_rule"] == "a_priori" and merged["alpha_c"] <= 0:
        raise ValidationError("alpha_rule 'a_priori' needs a positive alpha_c")
    if merged["w_f"] == 0 and merged["w_g"] == 0:
        raise ValidationError("w_f and w_g must not both be zero")
    return cfg


def check_stacked_size(cfg: ExperimentConfig) -> None:
    """Reject, before any allocation, a config whose largest array of a
    build and a fit would exceed MAX_ARRAY_BYTES."""
    _check_size("the largest array of the fit (2m x K x 8 B)",
                _stacked_bytes(cfg.raw))


def check_sweep_size(cfg: ExperimentConfig) -> None:
    """Reject, before any allocation, a sweep whose per-level stack of
    fields, one per seed, would exceed MAX_ARRAY_BYTES."""
    _check_size(f"a sweep level's {len(cfg['seeds'])} fields, one per seed",
                len(cfg["seeds"]) * 8.0 * math.prod(_nodes(cfg.raw)))


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
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
        # not UTF-8, not JSON, an integer past Python's digit limit, or
        # nesting deeper than the parser's recursion limit
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        raw.update(loaded)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return validate_config(raw)
