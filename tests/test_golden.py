"""Regression lock on the reference reconstruction.

The golden field was produced by the one-side reference preset on the
default ``direct`` solver, whose base solutions are exact (DST-I), so it
locks the discrete reconstruction rather than an iterative solver's
leftover error.  Regenerate after an intentional numerical change with

    python -c "
    from harmrec import resolve_config, io
    from harmrec.pipeline import run_experiment
    res = run_experiment(resolve_config(preset='paper-sec5-one-side'))
    io.write_field_csv('tests/golden/u_star_one_side.csv',
                       res['result'].u_star)"

The comparison tolerance is far below any physically meaningful scale but
leaves room for LAPACK build differences; see the README if it trips on a
new platform.
"""

from pathlib import Path

import numpy as np

from harmrec import resolve_config
from harmrec.pipeline import run_experiment

GOLDEN = Path(__file__).parent / "golden" / "u_star_one_side.csv"


def test_reference_reconstruction_matches_golden():
    cfg = resolve_config(preset="paper-sec5-one-side")
    res = run_experiment(cfg)
    u_star = res["result"].u_star
    golden = np.loadtxt(GOLDEN, delimiter=",", skiprows=1)[:, 2]
    assert np.abs(u_star.values.ravel() - golden).max() <= 1e-9
