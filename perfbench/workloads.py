"""The benchmark's workloads: inputs, one operation, and its correctness gate.

Each workload is a closed loop over a fixed *cycle* of operations, one at a
time in one process.  Every input comes from the workload seed, so a seed
fixes the cycle and every cycle of a run repeats the same inputs.

* ``run-sec5`` -- ``run_experiment`` with artifacts, alternating the
  ``paper-sec5-one-side`` and ``paper-sec5-two-sides`` presets (h = 1/64,
  n = 264 base solves).  The paper's reference experiment and the
  ``harmrec run`` path; base solves dominate.
* ``sweep-mc`` -- ``run_sweep`` on the one-side preset with 5 noise levels
  and 32 noise seeds: one geometry build, then 160 Tikhonov fits.  The fits
  dominate and no field artifact is written.
* ``tau-128`` -- ``run_tau`` at h = 1/128 over the four default side sets,
  with artifacts: no base solves and no fits, 4 single solves, and writers
  at 4x the node count.  It does not depend on the seed.

``smoke=True`` gives the same cycles at coarse h (1/16; 1/32 for tau).  The
gates encode the paper's acceptance criteria, which need the reference h,
so at coarse h they are evaluated but are not expected to pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EPS_LEVELS = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
SWEEP_SEEDS = 32
SEED_RANGE = range(1, 2**32)
TAU_CENTERS = [0.25, 0.5, 0.5, 0.75]
TAU_CENTER_TOL = 2e-3

RUN_ARTIFACTS = [
    "u_star.csv", "error.csv", "exact.csv", "tau.csv", "tau_contour.json",
    "b.csv", "cauchy.csv", "cauchy.json", "exact.svg", "u_star.svg",
    "error.svg", "tau.svg", "summary.json",
]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(path: Path):
    """Parse a JSON artifact, rejecting NaN and Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _artifacts(out: Path, names: list[str]) -> tuple[dict, dict]:
    """Checks that every artifact exists and every JSON one parses strictly,
    and the parsed JSON artifacts by name."""
    checks, parsed = {}, {}
    for name in names:
        path = out / name
        ok = path.is_file() and path.stat().st_size > 0
        if ok and name.endswith(".json"):
            try:
                parsed[name] = strict_json(path)
            except ValueError:
                ok = False
        checks[f"artifact {name}"] = ok
    return checks, parsed


@dataclass(frozen=True)
class Gate:
    checks: dict  # check name -> passed
    accuracy: float | None = None

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class Workload:
    cycle: Callable  # (seed, smoke) -> [(label, resolve_config kwargs)]
    run: Callable  # (pipeline module, config, out_dir) -> result
    gate: Callable  # (result, out_dir) -> Gate
    accuracy: tuple[str, str] | None = None  # (metric, unit) the gate reports


def _run_cycle(seed: int, smoke: bool) -> list:
    rng = random.Random(seed)
    coarse = {"h": 1 / 16} if smoke else {}
    return [(sides, {"preset": f"paper-sec5-{sides}",
                     "overrides": {"seed": rng.choice(SEED_RANGE), **coarse}})
            for sides in ("one-side", "two-sides")]


def _run_gate(result, out: Path) -> Gate:
    checks, parsed = _artifacts(out, RUN_ARTIFACTS)
    summary = parsed.get("summary.json")
    if summary is None:
        return Gate(checks)
    inside = summary["reliability"]["inside"]["median"]
    outside = summary["reliability"]["outside"]["median"]
    # Acceptance criterion 6(a) is stated for the one-side preset only.
    if summary["config"]["gamma_sides"] == ["bottom"]:
        checks["criterion 6(a): inside median < outside median"] = inside < outside
    return Gate(checks, inside)


def _sweep_cycle(seed: int, smoke: bool) -> list:
    seeds = random.Random(seed).sample(SEED_RANGE, SWEEP_SEEDS)
    coarse = {"h": 1 / 16} if smoke else {}
    return [("one-side", {"preset": "paper-sec5-one-side",
                          "overrides": {"eps_levels": EPS_LEVELS, "seeds": seeds,
                                        **coarse}})]


def _sweep_gate(result, out: Path) -> Gate:
    checks, parsed = _artifacts(out, ["probes.csv", "sweep.json"])
    sweep = parsed.get("sweep.json")
    rho = None
    if sweep is not None:
        rho = sweep["spearman_slope_tau"]
        probe_rows = len((out / "probes.csv").read_text().splitlines()) - 1
        checks["probes.csv has one row per probe"] = probe_rows == len(sweep["probes"])
        checks["criterion 7: >= 6 probes in band"] = sweep["probes_in_range"] >= 6
        checks["criterion 7: Spearman >= 0.8"] = rho is not None and rho >= 0.8
        checks["criterion 7: slope near tau=0.7 >= 0.4"] = (
            sweep["probe_near_07"]["slope"] >= 0.4)
        checks["criterion 8: |penalty-norm slope| <= 0.1"] = (
            abs(sweep["reg_norm_log_slope"]) <= 0.1)
    return Gate(checks, rho)


def _tau_cycle(seed: int, smoke: bool) -> list:
    return [("default-sides", {"overrides": {"h": 1 / 32 if smoke else 1 / 128}})]


def _tau_gate(result, out: Path) -> Gate:
    tags = ["bottom", "bottom-top", "bottom-left", "bottom-left-top"]
    names = [f"tau_{t}{suffix}" for t in tags
             for suffix in (".csv", "_contour.json", ".svg")]
    checks, parsed = _artifacts(out, names + ["tau_summary.json"])
    panels = parsed.get("tau_summary.json", {}).get("panels", [])
    centers = [p["tau_center"] for p in panels]
    checks[f"tau_center within {TAU_CENTER_TOL} of {TAU_CENTERS}"] = (
        len(centers) == len(TAU_CENTERS)
        and all(abs(c - t) <= TAU_CENTER_TOL for c, t in zip(centers, TAU_CENTERS)))
    return Gate(checks)


WORKLOADS = {
    "run-sec5": Workload(
        _run_cycle,
        lambda pipeline, cfg, out: pipeline.run_experiment(cfg, out_dir=out),
        _run_gate, ("err_inside_p50", "1")),
    "sweep-mc": Workload(
        _sweep_cycle,
        lambda pipeline, cfg, out: pipeline.run_sweep(cfg, out_dir=out),
        _sweep_gate, ("spearman_slope_tau", "1")),
    "tau-128": Workload(
        _tau_cycle,
        lambda pipeline, cfg, out: pipeline.run_tau(cfg, out_dir=out),
        _tau_gate),
}
