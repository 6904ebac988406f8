"""Regression lock on the reference reconstruction.

The golden field and contour were produced by the one-side reference
preset.  Its base solutions are sampled in closed form and its field is one
solve, both exact in the DST-I basis, so it locks the discrete
reconstruction rather than an iterative solver's leftover error.  The
contour of ``tau`` is compared byte for byte.  Regenerate after an
intentional numerical change with

    python -c "
    from harmrec import resolve_config, io
    from harmrec.pipeline import run_experiment
    res = run_experiment(resolve_config(preset='paper-sec5-one-side'))
    io.write_field_csv('tests/golden/u_star_one_side.csv',
                       res['result'].u_star)"

and the contour by copying ``tau_contour.json`` from
``harmrec run --preset paper-sec5-one-side``.

The comparison tolerance is far below any physically meaningful scale but
leaves room for LAPACK build differences; see the README if it trips on a
new platform.
"""

from pathlib import Path

import numpy as np
import pytest

from harmrec import resolve_config
from harmrec.pipeline import run_experiment

GOLDEN = Path(__file__).parent / "golden" / "u_star_one_side.csv"
GOLDEN_CONTOUR = Path(__file__).parent / "golden" / "tau_contour_one_side.json"


@pytest.fixture(scope="module")
def one_side(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_side")
    return run_experiment(resolve_config(preset="paper-sec5-one-side"), out), out


def test_reference_reconstruction_matches_golden(one_side):
    u_star = one_side[0]["result"].u_star
    golden = np.loadtxt(GOLDEN, delimiter=",", skiprows=1)[:, 2]
    assert np.abs(u_star.values.ravel() - golden).max() <= 1e-9


def test_reference_contour_matches_golden_bytes(one_side):
    assert (one_side[1] / "tau_contour.json").read_bytes() == GOLDEN_CONTOUR.read_bytes()
