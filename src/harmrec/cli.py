"""Command-line interface.

Subcommands: ``run`` (one reconstruction with artifacts), ``tau`` (exponent
fields for the configured side sets), ``sweep`` (noise-level/seed decay
study).  Exit codes: 0 success, 2 invalid configuration or an artifact that
cannot be written, 3 numerical failure.
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
    return p


def _fail(kind: str, exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": str(exc)}},
                                sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
