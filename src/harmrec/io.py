"""Deterministic artifact writers (CSV and JSON contracts).

Grid field CSV: header ``x,y,value``, one node per row, row-major by j then
i, 17 significant digits.  Table CSVs, written by one writer: boundary data
(header ``x,y,f,g``, with a JSON sidecar holding noise metadata), the
coefficients b (header ``b``, one value per row) and the sweep's probes.

All CSV writers format floats with ``%.17g``, and every JSON file is strict
(no NaN or Infinity), indented by 2 with sorted keys, so identical inputs
produce byte-identical files.  A contour's JSON is filled from templates
(:func:`contour_json_text`), since ``json`` encodes in pure Python when it
indents.
Each CSV row is written as soon as one ``%`` fills its template, so no
file's whole text exists.  The grid CSVs of one grid share each row's
``bytes`` template, its x and y strings (:func:`write_field_csvs`), and
binary mode ends their lines in ``\n`` on every platform.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .errors import SolverError, ValidationError
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


def contour_json_text(level: float, polylines: list[np.ndarray], name: str) -> str:
    """:func:`json_text` of ``{"level": level, "polylines": ...}`` for the
    (k, 2) point arrays ``polylines``, byte for byte, with one ``%r``
    template per polyline (a float's ``repr`` is what ``json`` writes).  A
    non-finite point is a numerical failure of the artifact ``name``."""
    if not all(np.isfinite(line).all() for line in polylines):
        raise SolverError(f"{name}: Out of range float values are not JSON compliant")
    point = "      [\n        %r,\n        %r\n      ]"
    texts = []
    for line in polylines:
        xy = tuple(np.ravel(line).tolist())
        body = ",\n".join([point] * len(line)) % xy
        texts.append(f"    [\n{body}\n    ]" if xy else "    []")
    lines = "[\n" + ",\n".join(texts) + "\n  ]" if texts else "[]"
    return f'{{\n  "level": {json_text(level, name)[:-1]},\n  "polylines": {lines}\n}}\n'


def dump_json(path, obj, text: str | None = None) -> None:
    """Write strict JSON (see :func:`json_text`).  ``text``, when given, is
    ``obj``'s :func:`json_text`, already encoded by a caller that checked it
    before writing anything."""
    Path(path).write_text(json_text(obj, Path(path).name) if text is None else text)


def write_field_csv(path, fld: ScalarField) -> None:
    """Grid CSV of ``fld``: :func:`write_field_csvs` of one field."""
    write_field_csvs([path], [fld])


def write_field_csvs(paths, fields) -> None:
    """Grid CSVs of ``fields``, all on one grid, at distinct ``paths``, in
    lockstep: each row's template (its x and y strings around one ``%.17g``
    slot per node) is built once and filled by one ``%`` per field."""
    grids = {fld.grid for fld in fields}
    if len(paths) != len(fields) or len(grids) != 1:
        raise ValidationError(f"{len(paths)} paths for {len(fields)} fields on {len(grids)} grids")
    g, = grids
    xs = [_fmt(x).encode() for x in g.xs.tolist()]
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p in paths]
        for fh in files:
            fh.write(b"x,y,value\n")
        for y, *rows in zip(g.ys.tolist(), *(fld.values for fld in fields)):
            tail = f",{_fmt(y)},%.17g\n".encode()
            template = tail.join(xs) + tail
            for fh, row in zip(files, rows):
                fh.write(template % tuple(row.tolist()))


def write_table_csv(path, columns, rows) -> None:
    """Table CSV: the header ``columns``, then each row of floats in
    ``rows``, filled by one ``%.17g`` template and written as it is filled."""
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(template % tuple(row))


def write_cauchy_csv(path, points, f, g, sidecar_path, sidecar: dict) -> None:
    write_table_csv(path, ("x", "y", "f", "g"), np.column_stack([points, f, g]).tolist())
    dump_json(sidecar_path, sidecar)


def write_vector_csv(path, vec: np.ndarray) -> None:
    write_table_csv(path, ("b",), np.asarray(vec, dtype=float).reshape(-1, 1).tolist())
