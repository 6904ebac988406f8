"""Command-line interface.

Subcommands: ``run`` (one reconstruction with artifacts), ``tau`` (exponent
fields for the configured side sets), ``sweep`` (noise-level/seed decay
study), ``check`` (fast invariant suite).  Exit codes: 0 success, 2 invalid
configuration or an artifact that cannot be written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import resolve_config
from .errors import SolverError, ValidationError
from .pipeline import run_experiment, run_sweep, run_tau


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a validation error, not usage text."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="harmrec")
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("run", "reconstruct once and emit the artifact bundle"),
        ("tau", "emit reliability-exponent artifacts per side set"),
        ("sweep", "noise sweep: per-probe decay rates and envelope fits"),
    ):
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", help="path to a flat JSON config")
        cmd.add_argument("--preset", help="named preset to start from")
        cmd.add_argument("--out", default="out", help="artifact directory")
        if name == "run":  # tau draws no noise and sweep draws it from seeds
            cmd.add_argument("--seed", type=int, help="override the config seed")
    sub.add_parser("check", help="run the fast invariant suite")  # fixed inputs, no flags
    return p


def _fail(kind: str, exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": str(exc)}},
                                sort_keys=True) + "\n")
    return code


def _run_checks() -> int:
    """Small smoke suite over the library invariants; prints one line each."""
    from .grid import Rect, boundary_partition, build_grid
    from .measure import annulus_tau, compute_indicate, rectangle_series_tau, two_constants_bound
    from .poisson import laplacian_residual, solve_dirichlet
    from .forward import HarmonicPoly, sample_exact
    from .tikhonov import DiscreteSystem, minimize
    from .forward import CauchyData

    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures += 1

    rect = Rect(0.0, 0.0, 1.0, 1.0)
    grid = build_grid(rect, 1.0 / 16.0)
    part = boundary_partition(grid, ["bottom"])
    length = part.gamma_sigma.sum()
    check("Γ quadrature sums to the length of Γ",
          abs(length - 1.0) < 1e-12, f"sum={length:.15g}")

    poly = HarmonicPoly(coeffs=(0.0, 0.0, 1.0))
    fld = sample_exact(poly, grid)
    res = laplacian_residual(fld)
    check("5-point stencil annihilates quadratic harmonics", res < 1e-12,
          f"residual={res:.3e}")

    sol = solve_dirichlet(grid, fld.values[part.nodes[:, 1], part.nodes[:, 0]])
    err = np.abs(sol.values - fld.values).max()
    check("Dirichlet solve reproduces a quadratic harmonic", err < 1e-7,
          f"max err={err:.3e}")

    grid64 = build_grid(rect, 1.0 / 64.0)
    part64 = boundary_partition(grid64, ["bottom"])
    tau = compute_indicate(part64)
    center = tau.values[32, 32]
    check("exponent at the center is 1/4 for one measured side",
          abs(center - 0.25) < 2e-3, f"tau={center:.6f}")
    oracle = rectangle_series_tau(0.5, 0.25, ["bottom"], terms=200)
    probe = tau.values[16, 32]
    check("exponent field matches the series oracle at (0.5, 0.25)",
          abs(probe - oracle) < 5e-3, f"diff={abs(probe - oracle):.2e}")

    n_pow, big_r, r, eps = 3, 2.0, 1.5, 1e-2
    w_abs = eps * r**n_pow
    m_bound = eps * big_r**n_pow
    bound = two_constants_bound(eps, m_bound, annulus_tau(r, big_r))
    rel = abs(w_abs - bound) / w_abs
    check("two-constants bound is attained on the annulus", rel <= 1e-12,
          f"rel diff={rel:.2e}")

    alpha = 1e-3
    sys_1d = DiscreteSystem(A=np.array([[1.0]]), B=np.array([[0.0]]),
                            sigma=np.array([1.0]), D1=np.array([[0.0]]), h=1.0)
    data_1d = CauchyData(partition=None, points=np.zeros((1, 2)),
                         f=np.array([1.0]), g=np.array([0.0]))
    w = minimize(sys_1d, data_1d, resolve_config(
        overrides={"alpha_rule": "fixed", "alpha_fixed": alpha}))
    check("scalar ridge solution is 1/(1+alpha)",
          abs(w[0] - 1.0 / (1.0 + alpha)) < 1e-12, f"w={w[0]:.15g}")

    if failures:
        print(f"FAILED: {failures} failing check(s)")
        return 3
    print("OK: all checks passed")
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "check":
            return _run_checks()
        cfg = resolve_config(preset=args.preset, config_path=args.config,
                             overrides={"seed": getattr(args, "seed", None)})
        # Overflow is not reported where it happens: the finiteness checks of
        # fields, fits and JSON turn any non-finite result into exit 3, and
        # stderr holds only the one-line error.
        command = {"run": run_experiment, "tau": run_tau, "sweep": run_sweep}[args.command]
        with np.errstate(all="ignore"):
            command(cfg, out_dir=args.out)
        return 0
    except (ValidationError, OSError) as exc:  # OSError: an artifact cannot be written
        return _fail("validation", exc, 2)
    except (SolverError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return _fail("numerical", exc, 3)


if __name__ == "__main__":
    sys.exit(main())
