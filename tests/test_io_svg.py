import json

import numpy as np

from harmrec import (Constant, Rect, boundary_partition, build_grid,
                     compute_indicate, reliable_region, sample_exact,
                     trace_cauchy)
from harmrec import io as hio
from harmrec.poisson import ScalarField
from harmrec.svg import render_heatmap


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
    ind = compute_indicate(g, p, method="direct")
    _, contour = reliable_region(ind, 0.5)
    out = tmp_path / "tau.svg"
    render_heatmap(ind.tau, out, contours=contour, title="tau")
    text = out.read_text()
    assert text.startswith("<svg")
    assert 'width="512"' in text
    assert "<polyline" in text
    assert text.count("<rect") == g.nx * g.ny
    # repeat is byte-identical
    out2 = tmp_path / "tau2.svg"
    render_heatmap(ind.tau, out2, contours=contour, title="tau")
    assert out.read_bytes() == out2.read_bytes()


def test_svg_constant_field(tmp_path):
    g = build_grid(Rect(0, 0, 1, 1), 0.5)
    fld = sample_exact(Constant(3.0), g)
    render_heatmap(fld, tmp_path / "c.svg")
    assert "<svg" in (tmp_path / "c.svg").read_text()
