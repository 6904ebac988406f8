import json
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import (Constant, Rect, boundary_partition, build_grid,
                     compute_indicate, reliable_region, sample_exact,
                     trace_cauchy)
from harmrec import io as hio
from harmrec.measure import LevelContour
from harmrec.poisson import ScalarField
from harmrec.svg import VIEW, render_heatmap

# Reference writers: the per-node loops the array writers replaced.  The
# array writers must reproduce their bytes on every field.

_ANCHORS = [(0x31, 0x36, 0x95), (0xFF, 0xFF, 0xBF), (0xA5, 0x00, 0x26)]


def _oracle_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        lo, hi, s = _ANCHORS[0], _ANCHORS[1], t * 2.0
    else:
        lo, hi, s = _ANCHORS[1], _ANCHORS[2], (t - 0.5) * 2.0
    rgb = [round(a + (b - a) * s) for a, b in zip(lo, hi)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _oracle_svg(fld, contours=None, title=""):
    g = fld.grid
    v = fld.values
    vmin, vmax = float(v.min()), float(v.max())
    span = vmax - vmin
    cw = VIEW / g.nx
    ch = VIEW / g.ny
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">',
        f"<title>{title} [range {vmin:.6g} .. {vmax:.6g}]</title>",
    ]
    for j in range(g.ny):
        y_pix = VIEW - (j + 1) * ch
        for i in range(g.nx):
            t = 0.5 if span == 0 else (v[j, i] - vmin) / span
            out.append(
                f'<rect x="{i * cw:.2f}" y="{y_pix:.2f}" '
                f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" fill="{_oracle_color(t)}"/>'
            )
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
def _fields(draw):
    nx, ny = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    h = draw(st.sampled_from([1.0, 0.25, 1 / 3, 0.1, 1e-3]))
    x0, y0 = draw(st.sampled_from([0.0, -0.5, 0.1, 1e3])), draw(st.sampled_from([0.0, -2.0, 0.3]))
    g = build_grid(Rect(x0, y0, x0 + (nx - 1) * h, y0 + (ny - 1) * h), h)
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
    hio.write_cauchy_csv(tmp_path / "d.csv", data, tmp_path / "d.json")
    raw = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1)
    assert np.array_equal(raw[:, :2], data.points)
    assert np.array_equal(raw[:, 2], data.f)
    meta = json.loads((tmp_path / "d.json").read_text())
    assert meta == {"noise_level": 0.0, "seed": 0, "model": "uniform",
                    "realized_eps": 0.0}


def test_vector_csv(tmp_path):
    hio.write_vector_csv(tmp_path / "b.csv", np.array([1.5, -2.0]))
    assert (tmp_path / "b.csv").read_text() == "b\n1.5\n-2\n"


def test_json_handles_numpy_scalars(tmp_path):
    hio.dump_json(tmp_path / "x.json",
                  {"a": np.float64(1.5), "b": np.int64(2),
                   "c": np.array([1.0, 2.0])})
    loaded = json.loads((tmp_path / "x.json").read_text())
    assert loaded == {"a": 1.5, "b": 2, "c": [1.0, 2.0]}


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
    assert text.count("<rect") == g.nx * g.ny
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
    assert path.read_text() == _oracle_svg(fld, contours, title="t")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fld=_fields())
def test_field_csv_matches_reference_bytes(fld):
    assert hio.field_csv_text(fld) == _oracle_csv(fld)


def test_half_values_round_half_to_even(tmp_path):
    # every listed t lands a channel on a half; the ramp rounds it to even
    assert len(HALF_TS) > 1000
    g = build_grid(Rect(0, 0, 1, 1), 1 / 36)
    values = np.resize(np.array([0.0, 1.0] + HALF_TS), g.shape)
    fld = ScalarField(grid=g, values=values)
    render_heatmap(fld, tmp_path / "h.svg")
    assert (tmp_path / "h.svg").read_text() == _oracle_svg(fld)


def test_svg_range_beyond_float_span(tmp_path):
    # vmax - vmin overflows: the reference fails; the ramp still spans it
    g = build_grid(Rect(0, 0, 1, 1), 0.5)
    values = np.zeros(g.shape)
    values[0, 0], values[-1, -1] = -1.5e308, 1.5e308
    render_heatmap(ScalarField(grid=g, values=values), tmp_path / "w.svg")
    fills = [line.rsplit('fill="', 1)[1][:7]
             for line in (tmp_path / "w.svg").read_text().splitlines()
             if line.startswith("<rect")]
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
    assert (tmp_path / "tau.svg").read_text() == _oracle_svg(ind, contour, title="tau")


def _traced_peak(write) -> int:
    write()  # first call: lazy imports and caches stay out of the peak
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_peak_memory_is_a_small_multiple_of_the_file(tmp_path, tau_128):
    # the writers hold no per-node string: the peak stays near the file's size
    ind, contour = tau_128
    csv, svg = tmp_path / "tau.csv", tmp_path / "tau.svg"
    peak = _traced_peak(lambda: hio.write_field_csv(csv, ind))
    assert peak <= 3.0 * csv.stat().st_size, (peak, csv.stat().st_size)
    peak = _traced_peak(lambda: render_heatmap(ind, svg, contours=contour, title="tau"))
    assert peak <= 3.5 * svg.stat().st_size, (peak, svg.stat().st_size)
