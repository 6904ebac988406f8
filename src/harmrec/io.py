"""Deterministic artifact writers (CSV and JSON contracts).

Grid field CSV: header ``x,y,value``, one node per row, row-major by j then
i, 17 significant digits.  Table CSVs, written by one writer: boundary data
(header ``x,y,f,g``, with a JSON sidecar holding noise metadata), the
coefficients b (header ``b``, one value per row) and the sweep's probes.

Every CSV number is the bytes of ``b"%.17g" % x``, and every JSON file is
strict (no NaN or Infinity), indented by 2 with sorted keys, so identical
inputs produce byte-identical files.  A contour's JSON is filled from
templates (:func:`contour_json_text`), since ``json`` encodes in pure Python
when it indents.  Every file is written in binary mode, so its lines end in
``\n`` on every platform.

CSV numbers are formatted in numpy blocks of about :data:`_BLOCK` values
(:func:`_g17`).  In fixed notation (1e-4 <= |x| < 1e17) the 17 digits come
from the exact product |x| 10^q, split by Dekker's algorithm, so no digit
depends on how ``log10`` rounds; zeros are written directly, and an exact
tie, a wrong decimal exponent or a value ``%.17g`` writes with an exponent
falls back to ``%`` alone.  Each CSV row is one ``%`` fill of a template
with a ``%b`` slot per number, written as soon as it is filled, so no
file's whole text exists.  The grid CSVs of one grid share each row's
template, its x and y strings (:func:`write_field_csvs`).
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .errors import SolverError, ValidationError
from .poisson import ScalarField


_BLOCK = 1024  # values per formatted block; the CSV writers' peak memory follows it
_POW10 = np.array([float(10**q) for q in range(21)])  # exact doubles
# the 4 ASCII digits of each k < 10000, in memory order, as one '<u4' word,
# each digit broadcast in place: temporaries here would raise the peak RSS
_WORDS = np.empty((10, 10, 10, 10, 4), np.uint8)
for _i in range(4):
    _WORDS[..., _i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - _i))
_WORDS = _WORDS.view("<u4").ravel()
# what precedes the digits, at 5 sign + k: the sign, and for 10^-k <= |x|
# < 10^(1-k), k >= 1, "0." and k - 1 zeros
_HEAD = np.array([s + (b"0." + b"0" * (k - 1) if k else b"") for s in (b"", b"-")
                  for k in range(5)])


def _split(a: np.ndarray) -> np.ndarray:
    """Dekker's split of each double in ``a`` into two of 26 bits: returns
    the high halves and leaves the low halves in ``a``."""
    hi = a * 134217729.0
    hi -= hi - a
    a -= hi
    return hi


def _g17(values: np.ndarray) -> np.ndarray:
    """``[b"%.17g" % x for x in values]``, byte for byte, as an ``S24``
    array, for the 1-D float64 array ``values``.  Each temporary is freed
    once it is dead: the CSV writers' peak memory is this function's."""
    v = np.asarray(values, dtype=np.float64)
    al = np.abs(v)
    exact = (al >= 1e-4) & (al < 1e17)  # %.17g's fixed notation
    al[~exact] = 1.0
    e = np.minimum(np.maximum(np.floor(np.log10(al)), -4), 16).astype(np.intp)
    # Dekker's product: |x| 10^q = p + err exactly, for q = 16 - e; al and
    # tl hold |x| and 10^q until their splits leave the low halves in them
    tl = _POW10[16 - e]
    p = al * tl
    ah, th = _split(al), _split(tl)
    err = ((ah * th - p) + ah * tl + al * th) + al * tl
    del ah, al, th, tl
    # the 17 digits d: |x| 10^q rounded to an integer; an exact tie, or a d
    # outside [10^16, 10^17) from a log10 one off, is left to %
    floor = np.floor(err)
    err -= floor  # the fraction, exact: a multiple of 2^-46 below 1
    d = p.astype(np.int64) + floor.astype(np.int64) + (err > 0.5)
    exact &= (err != 0.5) & (d >= 10**16) & (d < 10**17)
    del p, err, floor
    words = np.empty((len(v), 5), "<u4")
    for k in range(4, 0, -1):
        d, r = np.divmod(d, 10**4)
        words[:, k] = _WORDS[r]
    words[:, 0] = _WORDS[d]
    del d, r
    digits = words.view(np.uint8)[:, 3:]  # word 0 holds d's first digit last
    body = np.zeros((len(v), 18), np.uint8)  # the digits, a point after digit e >= 0
    body[:, :17] = digits
    for x in np.flatnonzero(np.bincount(e[e >= 0])).tolist():
        i = np.flatnonzero(e == x)
        body[i, x + 2:] = digits[i, x + 1:]
        body[i, x + 1] = ord(".")
    del words, digits
    text = np.char.rstrip(np.char.rstrip(body.view("S18")[:, 0], b"0"), b".")
    del body
    neg = np.signbit(v)
    head = np.maximum(-e, 0)
    head[neg] += 5
    out = np.char.add(_HEAD[head], text)
    zero = v == 0
    out[zero] = np.where(neg[zero], b"-0", b"0")
    for i in np.flatnonzero(~(exact | zero)).tolist():
        out[i] = b"%.17g" % v[i]
    return out


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
    text = json_text(obj, Path(path).name) if text is None else text
    Path(path).write_bytes(text.encode())


def write_field_csv(path, fld: ScalarField) -> None:
    """Grid CSV of ``fld``: :func:`write_field_csvs` of one field."""
    write_field_csvs([path], [fld])


def write_field_csvs(paths, fields) -> None:
    """Grid CSVs of ``fields``, all on one grid, at distinct ``paths``, in
    lockstep: each row's template (its x and y strings around one ``%b``
    slot per node) is built once and filled by one ``%`` per field, from
    one :func:`_g17` block of rows of every field."""
    grids = {fld.grid for fld in fields}
    if len(paths) != len(fields) or len(grids) != 1:
        raise ValidationError(f"{len(paths)} paths for {len(fields)} fields on {len(grids)} grids")
    g, = grids
    xs, ys = _g17(g.xs).tolist(), _g17(g.ys)
    rows = max(1, round(_BLOCK / (g.nx * len(fields))))
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p in paths]
        for fh in files:
            fh.write(b"x,y,value\n")
        for j0 in range(0, g.ny, rows):
            block = _g17(np.concatenate([fld.values[j0:j0 + rows].ravel() for fld in fields]))
            block = block.reshape(len(fields), -1, g.nx)
            for k, y in enumerate(ys[j0:j0 + rows].tolist()):
                tail = b"," + y + b",%b\n"
                template = tail.join(xs) + tail
                for fh, row in zip(files, block[:, k]):
                    fh.write(template % tuple(row.tolist()))
            del block, row  # freed before the next block is formatted


def write_table_csv(path, columns, rows) -> None:
    """Table CSV: the header ``columns``, then each row of floats in
    ``rows``, filled into one ``%b`` template per :func:`_g17` block."""
    values = np.asarray(rows, dtype=np.float64).reshape(-1, len(columns))
    n = max(1, _BLOCK // len(columns))
    template = b",".join([b"%b"] * len(columns)) + b"\n"
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode() + b"\n")
        for k in range(0, len(values), n):
            block = values[k:k + n]
            fh.write(template * len(block) % tuple(_g17(block.ravel()).tolist()))


def write_cauchy_csv(path, points, f, g, sidecar_path, sidecar: dict) -> None:
    write_table_csv(path, ("x", "y", "f", "g"), np.column_stack([points, f, g]))
    dump_json(sidecar_path, sidecar)


def write_vector_csv(path, vec: np.ndarray) -> None:
    write_table_csv(path, ("b",), np.ravel(vec))
