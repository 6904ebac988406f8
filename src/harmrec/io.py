"""Deterministic artifact writers (CSV and JSON contracts).

Grid field CSV: header ``x,y,value``, one node per row, row-major by j then
i, 17 significant digits.  Boundary data CSV: header ``x,y,f,g`` with a JSON
sidecar holding noise metadata.  Matrix CSV: plain rows of values with a
JSON sidecar ``{"rows": ..., "cols": ...}``.

All writers format floats with ``%.17g`` and emit strict JSON (no NaN or
Infinity) with sorted keys, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SolverError
from .forward import CauchyData
from .grid import Grid2D
from .poisson import ScalarField


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def dump_json(path, obj) -> None:
    """Write strict JSON; a NaN or infinity is a numerical failure."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=_json_default)
    except ValueError as exc:
        raise SolverError(f"{Path(path).name}: {exc}") from exc
    Path(path).write_text(text + "\n")


def field_csv_text(fld: ScalarField) -> str:
    g = fld.grid
    xs, ys = g.xs, g.ys
    lines = ["x,y,value"]
    for j in range(g.ny):
        for i in range(g.nx):
            lines.append(f"{_fmt(xs[i])},{_fmt(ys[j])},{_fmt(fld.values[j, i])}")
    return "\n".join(lines) + "\n"


def write_field_csv(path, fld: ScalarField) -> None:
    Path(path).write_text(field_csv_text(fld))


def read_field_csv(path, grid: Grid2D) -> ScalarField:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    values = data[:, 2].reshape(grid.ny, grid.nx)
    return ScalarField(grid=grid, values=values)


def write_cauchy_csv(path, data: CauchyData, sidecar_path=None) -> None:
    lines = ["x,y,f,g"]
    for (x, y), fv, gv in zip(data.points, data.f, data.g):
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(fv)},{_fmt(gv)}")
    Path(path).write_text("\n".join(lines) + "\n")
    if sidecar_path is not None:
        dump_json(sidecar_path, {
            "noise_level": data.noise_level,
            "seed": data.seed,
            "model": data.noise_model,
            "realized_eps": data.realized_eps,
        })


def read_cauchy_arrays(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, f, g) from a boundary-data CSV."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    raw = np.atleast_2d(raw)
    return raw[:, :2], raw[:, 2], raw[:, 3]


def write_matrix_csv(path, mat: np.ndarray, sidecar_path=None) -> None:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    lines = [",".join(_fmt(v) for v in row) for row in mat]
    Path(path).write_text("\n".join(lines) + "\n")
    if sidecar_path is not None:
        dump_json(sidecar_path, {"rows": mat.shape[0], "cols": mat.shape[1]})


def write_vector_csv(path, vec: np.ndarray, header: str = "b") -> None:
    lines = [header] + [_fmt(v) for v in np.asarray(vec, dtype=float)]
    Path(path).write_text("\n".join(lines) + "\n")
