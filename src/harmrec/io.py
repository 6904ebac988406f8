"""Deterministic artifact writers (CSV and JSON contracts).

Grid field CSV: header ``x,y,value``, one node per row, row-major by j then
i, 17 significant digits.  Boundary data CSV: header ``x,y,f,g`` with a JSON
sidecar holding noise metadata.  Vector CSV (the coefficients b): header
``b``, then one value per row.

All writers format floats with ``%.17g`` and emit strict JSON (no NaN or
Infinity) with sorted keys, so identical inputs produce byte-identical files.
A grid CSV is filled row by row: each row's template holds its x and y
strings, each formatted once, and one ``%`` over the row's values fills it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SolverError, ValidationError
from .forward import CauchyData
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


def out_dir(path) -> Path:
    """Create the artifact directory; a path that cannot be one is invalid."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory: {exc}") from exc
    return Path(path)


def json_text(obj, name: str) -> str:
    """Strict JSON text of ``obj``; a NaN or infinity is a numerical failure
    of the artifact ``name``."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=_json_default) + "\n"
    except ValueError as exc:
        raise SolverError(f"{name}: {exc}") from exc


def dump_json(path, obj, text: str | None = None) -> None:
    """Write strict JSON (see :func:`json_text`).  ``text``, when given, is
    ``obj``'s :func:`json_text`, already encoded by a caller that checked it
    before writing anything."""
    Path(path).write_text(json_text(obj, Path(path).name) if text is None else text)


def field_csv_text(fld: ScalarField) -> str:
    """Grid CSV text of ``fld``: per row, one ``%`` fills a ``%.17g`` slot
    per node, so no string is built per node."""
    g = fld.grid
    xs = [_fmt(x) for x in g.xs.tolist()]
    rows = ["x,y,value\n"]
    for y, row in zip(g.ys.tolist(), fld.values):
        tail = f",{_fmt(y)},%.17g\n"
        rows.append((tail.join(xs) + tail) % tuple(row.tolist()))
    return "".join(rows)


def write_field_csv(path, fld: ScalarField) -> None:
    Path(path).write_text(field_csv_text(fld))


def write_cauchy_csv(path, data: CauchyData, sidecar_path) -> None:
    lines = ["x,y,f,g"]
    for (x, y), fv, gv in zip(data.points, data.f, data.g):
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(fv)},{_fmt(gv)}")
    Path(path).write_text("\n".join(lines) + "\n")
    dump_json(sidecar_path, {
        "noise_level": data.noise_level,
        "seed": data.seed,
        "model": data.noise_model,
        "realized_eps": data.realized_eps,
    })


def write_vector_csv(path, vec: np.ndarray) -> None:
    lines = ["b"] + [_fmt(v) for v in np.asarray(vec, dtype=float)]
    Path(path).write_text("\n".join(lines) + "\n")
