import base64
import json
import math
import struct
import sys
import tracemalloc
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import (Constant, Rect, boundary_partition, build_grid,
                     compute_indicate, reliable_region, resolve_config,
                     run_experiment, run_tau, sample_exact, trace_cauchy)
from harmrec import io as hio
from harmrec.errors import SolverError, ValidationError
from harmrec.measure import LevelContour
from harmrec.poisson import ScalarField
from harmrec.svg import VIEW, render_heatmap

# Reference writers: per-node loops that share no code with the array
# writers.  A heatmap's document must equal the reference text around its
# PNG, and the PNG must decode to the reference color of every node.

_ANCHORS = [(0x31, 0x36, 0x95), (0xFF, 0xFF, 0xBF), (0xA5, 0x00, 0x26)]
_SVG = "{http://www.w3.org/2000/svg}"
_HREF = "{http://www.w3.org/1999/xlink}href"
_PNG_URI = "data:image/png;base64,"


def _oracle_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        lo, hi, s = _ANCHORS[0], _ANCHORS[1], t * 2.0
    else:
        lo, hi, s = _ANCHORS[1], _ANCHORS[2], (t - 0.5) * 2.0
    rgb = [round(a + (b - a) * s) for a, b in zip(lo, hi)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _oracle_colors(v) -> list[list[str]]:
    """The color of every node of the values ``v[j, i]``, row j = 0 first."""
    vmin, vmax = float(v.min()), float(v.max())
    span = vmax - vmin
    return [[_oracle_color(0.5 if span == 0 else (v[j, i] - vmin) / span)
             for i in range(v.shape[1])] for j in range(v.shape[0])]


def _oracle_svg(fld, contours=None, title=""):
    """The document's text, with ``{png}`` where the PNG's base64 goes."""
    g = fld.grid
    v = fld.values
    vmin, vmax = float(v.min()), float(v.max())
    cw = VIEW / g.nx
    ch = VIEW / g.ny
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">',
        f"<title>{title} [range {vmin:.6g} .. {vmax:.6g}]</title>",
        f'<image width="{VIEW}" height="{VIEW}" preserveAspectRatio="none" '
        f'image-rendering="optimizeSpeed" style="image-rendering:pixelated" '
        f'xlink:href="{_PNG_URI}{{png}}"/>',
    ]
    if contours is not None:
        for line in contours.polylines:
            pts = []
            for x, y in line:
                px = ((x - g.rect.x0) / g.h + 0.5) * cw
                py = VIEW - ((y - g.rect.y0) / g.h + 0.5) * ch
                pts.append(f"{px:.2f},{py:.2f}")
            out.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="black" stroke-width="1.5"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _inflate_stored(stream: bytes) -> bytes:
    """The data of a zlib stream that holds only stored deflate blocks."""
    assert stream[:2] == b"\x78\x01"
    out, pos, final = bytearray(), 2, False
    while not final:
        assert stream[pos] >> 1 == 0  # block type 0 (stored), zero padding
        final = bool(stream[pos] & 1)
        n, n_inv = struct.unpack("<HH", stream[pos + 1:pos + 5])
        assert n ^ n_inv == 0xFFFF
        out += stream[pos + 5:pos + 5 + n]
        pos += 5 + n
    assert stream[pos:] == struct.pack(">I", zlib.adler32(out))
    return bytes(out)


def _decode_png(png: bytes) -> np.ndarray:
    """(rows, columns, 3) pixels of an 8-bit RGB PNG, top row first; every
    chunk's CRC is checked."""
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(png):
        n, = struct.unpack(">I", png[pos:pos + 4])
        kind, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + n]
        assert png[pos + 8 + n:pos + 12 + n] == struct.pack(">I", zlib.crc32(kind + data))
        chunks.append((kind, data))
        pos += 12 + n
    kinds = [kind for kind, _ in chunks]
    assert kinds[0] == b"IHDR" and kinds[-1] == b"IEND" and set(kinds[1:-1]) == {b"IDAT"}
    cols, rows, *layout = struct.unpack(">IIBBBBB", chunks[0][1])
    assert layout == [8, 2, 0, 0, 0]  # 8-bit RGB, deflate, no interlace
    raw = _inflate_stored(b"".join(data for kind, data in chunks if kind == b"IDAT"))
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(rows, 1 + 3 * cols)
    assert not lines[:, 0].any()  # filter byte 0: each row holds the pixels
    return lines[:, 1:].reshape(rows, cols, 3)


def _node_colors(pixels: np.ndarray) -> list[list[str]]:
    """'#rrggbb' of decoded pixels, bottom row (grid row 0) first."""
    return [["#{:02x}{:02x}{:02x}".format(*p) for p in row]
            for row in pixels[::-1].tolist()]


def _svg_colors(path) -> list[list[str]]:
    """Parse a heatmap, check that it holds exactly one image, and return
    the decoded color of every node."""
    images = list(ET.parse(path).getroot().iter(f"{_SVG}image"))
    assert len(images) == 1
    href = images[0].get(_HREF)
    assert href.startswith(_PNG_URI)
    return _node_colors(_decode_png(base64.b64decode(href[len(_PNG_URI):], validate=True)))


def _check_svg(path, fld, contours=None, title=""):
    """The heatmap is the reference text around its PNG, and the PNG holds
    the reference color of every node."""
    text = path.read_text()
    head, tail = _oracle_svg(fld, contours, title).split("{png}")
    assert text.startswith(head) and text.endswith(tail)
    payload = text[len(head):len(text) - len(tail)]
    pixels = _decode_png(base64.b64decode(payload, validate=True))
    assert pixels.shape == fld.values.shape + (3,)
    assert _node_colors(pixels) == _oracle_colors(fld.values)


def _oracle_csv(fld):
    g = fld.grid
    xs, ys = g.xs, g.ys
    lines = ["x,y,value"]
    for j in range(g.ny):
        for i in range(g.nx):
            lines.append(f"{float(xs[i]):.17g},{float(ys[j]):.17g},"
                         f"{float(fld.values[j, i]):.17g}")
    return "\n".join(lines) + "\n"


def _half_ts() -> list[float]:
    """Values of t in [0, 1] at which some color channel, computed as the
    reference does, lands exactly on a half: rounding half to even shows."""
    found = set()
    for seg in (0, 1):
        for a, b in zip(_ANCHORS[seg], _ANCHORS[seg + 1]):
            d = b - a
            for m in range(abs(d)):
                s0 = math.copysign(m + 0.5, d) / d
                for s in (math.nextafter(s0, -1.0), s0, math.nextafter(s0, 2.0)):
                    t = s / 2 if seg == 0 else 0.5 + s / 2
                    s_ref = t * 2.0 if t <= 0.5 else (t - 0.5) * 2.0
                    if 0.0 <= t <= 1.0 and (a + d * s_ref) % 1 == 0.5:
                        found.add(t)
    return sorted(found)


HALF_TS = _half_ts()

_values = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.floats(min_value=1e-300, max_value=1e300).map(lambda v: v * 0.5),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324]),
    st.sampled_from(HALF_TS),
)


@st.composite
def _fields(draw, g=None):
    """A field on the grid ``g``, or on a drawn grid when ``g`` is None."""
    if g is None:
        nx, ny = draw(st.integers(3, 12)), draw(st.integers(3, 12))
        h = draw(st.sampled_from([1.0, 0.25, 1 / 3, 0.1, 1e-3]))
        x0 = draw(st.sampled_from([0.0, -0.5, 0.1, 1e3]))
        y0 = draw(st.sampled_from([0.0, -2.0, 0.3]))
        g = build_grid(Rect(x0, y0, x0 + (nx - 1) * h, y0 + (ny - 1) * h), h)
    nx, ny = g.nx, g.ny
    kind = draw(st.sampled_from(["free", "constant", "halves"]))
    if kind == "constant":
        values = np.full(g.shape, draw(_values))
    elif kind == "halves":  # range exactly [0, 1], so t is the value itself
        rest = draw(st.lists(st.sampled_from(HALF_TS), min_size=nx * ny - 2,
                             max_size=nx * ny - 2))
        values = np.array([0.0, 1.0] + rest).reshape(g.shape)
    else:
        values = np.array(draw(st.lists(_values, min_size=nx * ny,
                                        max_size=nx * ny))).reshape(g.shape)
    return ScalarField(grid=g, values=values)


@st.composite
def _contours(draw, grid):
    coords = st.tuples(st.floats(grid.rect.x0, grid.rect.x1),
                       st.floats(grid.rect.y0, grid.rect.y1))
    lines = draw(st.lists(st.lists(coords, min_size=2, max_size=6), max_size=3))
    return LevelContour(level=0.5, polylines=[np.array(line) for line in lines])


def test_field_csv_roundtrip(tmp_path):
    g = build_grid(Rect(0, 0, 1, 1), 0.25)
    rng = np.random.default_rng(2)
    fld = ScalarField(grid=g, values=rng.normal(size=g.shape))
    path = tmp_path / "f.csv"
    hio.write_field_csv(path, fld)
    back = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2].reshape(g.shape)
    assert np.array_equal(back, fld.values)  # 17 digits round-trip
    header, first = path.read_text().splitlines()[:2]
    assert header == "x,y,value"
    assert first.startswith("0,0,")


def test_csv_writers_are_deterministic(tmp_path):
    g = build_grid(Rect(0, 0, 1, 1), 0.25)
    fld = ScalarField(grid=g, values=np.linspace(0, 1, g.nx * g.ny).reshape(g.shape))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    hio.write_field_csv(p1, fld)
    hio.write_field_csv(p2, fld)
    assert p1.read_bytes() == p2.read_bytes()


def test_cauchy_csv_and_sidecar(tmp_path):
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 0.25), ["bottom"])
    data = trace_cauchy(Constant(1.0), part)
    sidecar = {"noise_level": 0.0, "seed": 0, "model": "uniform", "realized_eps": 0.0}
    hio.write_cauchy_csv(tmp_path / "d.csv", data.points, data.f, data.g,
                         tmp_path / "d.json", sidecar)
    raw = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1)
    assert np.array_equal(raw[:, :2], data.points)
    assert np.array_equal(raw[:, 2], data.f)
    meta = json.loads((tmp_path / "d.json").read_text())
    assert meta == sidecar


def test_vector_csv(tmp_path):
    hio.write_vector_csv(tmp_path / "b.csv", np.array([1.5, -2.0]))
    assert (tmp_path / "b.csv").read_text() == "b\n1.5\n-2\n"


def test_json_handles_numpy_scalars(tmp_path):
    hio.dump_json(tmp_path / "x.json",
                  {"a": np.float64(1.5), "b": np.int64(2),
                   "c": np.array([1.0, 2.0])})
    loaded = json.loads((tmp_path / "x.json").read_text())
    assert loaded == {"a": 1.5, "b": 2, "c": [1.0, 2.0]}


def _edge_values() -> list[float]:
    """Values at which an exact ``%.17g`` can go wrong, each also negated:
    exact ties of 17 digits (m 2^(e-17), m odd) with both neighbours; 1 to
    20 ulps around powers of ten, where log10 can round across an integer;
    the ends of fixed notation; zeros and the extreme doubles."""
    out = [0.0, 5e-324, sys.float_info.max]
    for e in range(-4, 16):
        lo = math.ceil(10.0**e * 2.0 ** (17 - e)) | 1
        for m in [*range(lo, lo + 40, 2), *range(lo, 10 * lo, 2 * (lo // 6) + 2)]:
            x = m * 2.0 ** (e - 17)
            out += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    for k in range(-6, 19):
        for toward in (0.0, math.inf):
            x = float(f"1e{k}")
            for _ in range(20):
                x = math.nextafter(x, toward)
                out.append(x)
    for x in (1e-4, 1e16, 1e17):
        out += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return out + [-x for x in out]


def test_g17_matches_percent_on_edge_values():
    values = _edge_values()
    assert len(values) > 7000
    assert hio._g17(np.array(values)).tolist() == [b"%.17g" % x for x in values]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300))
def test_g17_matches_percent(values):
    # one block mixes every path: exact digits, zeros and the % fallback
    assert hio._g17(np.array(values, dtype=float)).tolist() == [b"%.17g" % x for x in values]


_COORDS = st.one_of(
    st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-300, 299)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(level=st.one_of(st.just(1), st.just(0.5), st.floats(1e-300, 1.0), st.integers(0, 3)),
       lines=st.lists(st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=6),
                      max_size=4))
def test_contour_json_text_is_json_text(level, lines):
    # the templated contour writer against the json module's indented text:
    # negative zero, magnitudes 1e-300 to 1e300, integer levels, no lines
    polylines = [np.array(line, dtype=float) for line in lines]
    expected = hio.json_text({"level": level,
                              "polylines": [line.tolist() for line in polylines]}, "c.json")
    assert hio.contour_json_text(level, polylines, "c.json") == expected


@pytest.mark.parametrize("level, bad", [(0.5, math.nan), (0.5, math.inf), (math.nan, 0.0)])
def test_contour_json_text_rejects_non_finite(level, bad):
    with pytest.raises(SolverError, match="c.json"):
        hio.contour_json_text(level, [np.array([[0.0, 1.0], [bad, 0.5]])], "c.json")


def test_svg_renders_heatmap_with_contour(tmp_path):
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    p = boundary_partition(g, ["bottom"])
    ind = compute_indicate(p)
    _, contour = reliable_region(ind, 0.5)
    out = tmp_path / "tau.svg"
    render_heatmap(ind, out, contours=contour, title="tau")
    text = out.read_text()
    assert text.startswith("<svg")
    assert 'width="512"' in text
    assert "<polyline" in text
    assert text.count("<image") == 1
    assert len(sum(_svg_colors(out), [])) == g.nx * g.ny
    # repeat is byte-identical
    out2 = tmp_path / "tau2.svg"
    render_heatmap(ind, out2, contours=contour, title="tau")
    assert out.read_bytes() == out2.read_bytes()


def test_svg_constant_field(tmp_path):
    g = build_grid(Rect(0, 0, 1, 1), 0.5)
    fld = sample_exact(Constant(3.0), g)
    render_heatmap(fld, tmp_path / "c.svg")
    assert "<svg" in (tmp_path / "c.svg").read_text()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_svg_matches_reference_bytes(tmp_path_factory, data):
    fld = data.draw(_fields())
    contours = data.draw(st.none() | _contours(fld.grid))
    path = tmp_path_factory.mktemp("svg") / "f.svg"
    render_heatmap(fld, path, contours=contours, title="t")
    _check_svg(path, fld, contours, title="t")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fld=_fields())
def test_field_csv_matches_reference_bytes(tmp_path_factory, fld):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    hio.write_field_csv(path, fld)
    assert path.read_text() == _oracle_csv(fld)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_lockstep_field_csvs_match_reference_bytes(tmp_path_factory, data):
    # 1-4 fields on one grid, written row by row in lockstep: each file holds
    # exactly the reference bytes of its own field, with "\n" line ends
    first = data.draw(_fields())
    more = data.draw(st.integers(0, 3))
    fields = [first] + [data.draw(_fields(first.grid)) for _ in range(more)]
    out = tmp_path_factory.mktemp("csvs")
    paths = [out / f"f{k}.csv" for k in range(len(fields))]
    hio.write_field_csvs(paths, fields)
    for path, fld in zip(paths, fields):
        assert path.read_bytes() == _oracle_csv(fld).encode()


def test_lockstep_field_csvs_reject_mismatched_arguments(tmp_path):
    # a field on another grid would be written with the first grid's x and y
    g = build_grid(Rect(0, 0, 1, 1), 0.25)
    fld = ScalarField(grid=g, values=np.zeros(g.shape))
    shifted = build_grid(Rect(0.5, 0, 1.5, 1), 0.25)
    finer = build_grid(Rect(0, 0, 1, 1), 0.125)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    with pytest.raises(ValidationError, match="2 paths for 1 fields"):
        hio.write_field_csvs([a, b], [fld])
    with pytest.raises(ValidationError, match="1 paths for 2 fields"):
        hio.write_field_csvs([a], [fld, fld])
    with pytest.raises(ValidationError, match="0 paths for 0 fields"):
        hio.write_field_csvs([], [])
    for other in (shifted, finer):
        elsewhere = ScalarField(grid=other, values=np.zeros(other.shape))
        with pytest.raises(ValidationError, match="on 2 grids"):
            hio.write_field_csvs([a, b], [fld, elsewhere])
    assert not a.exists() and not b.exists()  # rejected before any file is opened


def test_half_values_round_half_to_even(tmp_path):
    # every listed t lands a channel on a half; the ramp rounds it to even
    assert len(HALF_TS) > 1000
    g = build_grid(Rect(0, 0, 1, 1), 1 / 36)
    values = np.resize(np.array([0.0, 1.0] + HALF_TS), g.shape)
    fld = ScalarField(grid=g, values=values)
    render_heatmap(fld, tmp_path / "h.svg")
    _check_svg(tmp_path / "h.svg", fld)


def test_svg_range_beyond_float_span(tmp_path):
    # vmax - vmin overflows: the reference fails; the ramp still spans it
    g = build_grid(Rect(0, 0, 1, 1), 0.5)
    values = np.zeros(g.shape)
    values[0, 0], values[-1, -1] = -1.5e308, 1.5e308
    render_heatmap(ScalarField(grid=g, values=values), tmp_path / "w.svg")
    fills = sum(_svg_colors(tmp_path / "w.svg"), [])
    assert fills[0] == "#313695" and fills[-1] == "#a50026"
    assert set(fills[1:-1]) == {"#ffffbf"}


def test_svg_title_is_escaped(tmp_path):
    g = build_grid(Rect(0, 0, 1, 1), 0.5)
    fld = sample_exact(Constant(3.0), g)
    render_heatmap(fld, tmp_path / "t.svg", title="a<b & c>d")
    root = ET.parse(tmp_path / "t.svg").getroot()
    title = root.find("{http://www.w3.org/2000/svg}title")
    assert title.text == "a<b & c>d [range 3 .. 3]"


@pytest.fixture(scope="module")
def tau_128():
    """The one-side exponent field at h = 1/128 (129 x 129 nodes) and its
    threshold contour."""
    ind = compute_indicate(boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 128),
                                              ["bottom"]))
    _, contour = reliable_region(ind, 0.5)
    return ind, contour


def test_full_size_field_matches_reference_bytes(tmp_path, tau_128):
    ind, contour = tau_128
    assert ind.values.shape == (129, 129) and contour.polylines
    hio.write_field_csv(tmp_path / "tau.csv", ind)
    render_heatmap(ind, tmp_path / "tau.svg", contours=contour, title="tau")
    assert (tmp_path / "tau.csv").read_text() == _oracle_csv(ind)
    _check_svg(tmp_path / "tau.svg", ind, contour, title="tau")



@pytest.mark.parametrize("nx, ny", [(85, 254), (85, 255), (85, 256), (85, 510)])
def test_png_rows_fill_stored_blocks(tmp_path, nx, ny):
    # a row is 3 nx + 1 = 256 bytes, so the pixel data ends just short of,
    # at, just past and at twice the 65535 bytes of one stored block
    g = build_grid(Rect(0, 0, nx - 1, ny - 1), 1.0)
    fld = ScalarField(grid=g, values=np.random.default_rng(ny).normal(size=g.shape))
    render_heatmap(fld, tmp_path / "f.svg")
    _check_svg(tmp_path / "f.svg", fld)


def test_heatmaps_agree_with_their_csvs(tmp_path):
    cfg = resolve_config(preset="paper-sec5-one-side")
    run_experiment(cfg, out_dir=tmp_path / "run")
    run_tau(cfg, out_dir=tmp_path / "tau")
    for stem in (tmp_path / "run" / "tau", tmp_path / "run" / "error",
                 tmp_path / "tau" / "tau_bottom"):
        x, y, v = np.loadtxt(stem.with_suffix(".csv"), delimiter=",", skiprows=1).T
        values = v.reshape(len(np.unique(y)), len(np.unique(x)))
        assert _svg_colors(stem.with_suffix(".svg")) == _oracle_colors(values)

def _traced_peak(write) -> int:
    write()  # first call: lazy imports and caches stay out of the peak
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_peak_memory_is_a_small_multiple_of_the_file(tmp_path, tau_128):
    # the CSV writer holds no file's text: it formats one block of about
    # io._BLOCK values at a time (all four panels of `tau` at h = 1/128,
    # written in lockstep, share a block of rows), frees the block's float
    # and digit temporaries before it builds their text, and writes each
    # row as it is filled.  The heatmap's peak is the color ramp's float
    # temporaries, one channel at a time, so it is bounded by the field's
    # own array: 4.5 times it here
    ind, contour = tau_128
    csv, svg = tmp_path / "tau.csv", tmp_path / "tau.svg"
    peak = _traced_peak(lambda: hio.write_field_csv(csv, ind))
    assert peak <= 0.25 * csv.stat().st_size, (peak, csv.stat().st_size)
    panels = [compute_indicate(boundary_partition(ind.grid, sides))
              for sides in resolve_config()["tau_gamma_sets"]]
    paths = [tmp_path / f"tau_{k}.csv" for k in range(len(panels))]
    peak = _traced_peak(lambda: hio.write_field_csvs(paths, panels))
    assert peak <= 0.25 * min(p.stat().st_size for p in paths), (
        peak, [p.stat().st_size for p in paths])
    peak = _traced_peak(lambda: render_heatmap(ind, svg, contours=contour, title="tau"))
    assert peak <= 7 * ind.values.nbytes, (peak, ind.values.nbytes)
