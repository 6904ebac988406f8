"""The contract of harmrec's output bundles, written out once and checked.

A bundle is the directory that one ``harmrec`` command writes.  Its kind is
the report it holds: ``summary.json`` for ``run``, ``tau_summary.json`` for
``tau`` and ``sweep.json`` for ``sweep``.  The file sets and key sets below
are the contract that README's *Artifacts* describes.  ``check_bundle``
checks one directory against it, and ``check`` checks every bundle of
``BUNDLES`` that ``write`` wrote.

The script needs numpy alone.  Run it as::

    python tests/bundle_check.py HARMREC OUT_ROOT

HARMREC is a ``harmrec`` executable.  Each bundle of ``BUNDLES`` is written
to OUT_ROOT/<name> and then checked; the script exits non-zero on the first
break of the contract.  tests/test_bundle_check.py writes the same bundles
in process through ``harmrec.cli.main`` and runs the same check.
"""

import base64
import json
import struct
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path

import numpy as np

RUN_FILES = frozenset({
    "u_star.csv", "exact.csv", "error.csv", "tau.csv", "tau_contour.json",
    "b.csv", "cauchy.csv", "cauchy.json", "exact.svg", "u_star.svg",
    "error.svg", "tau.svg", "summary.json"})
# one tag per side set of the default tau_gamma_sets
TAU_TAGS = ("bottom", "bottom-top", "bottom-left", "bottom-left-top")
TAU_FILES = frozenset({f"tau_{tag}{suffix}" for tag in TAU_TAGS
                       for suffix in (".csv", "_contour.json", ".svg")} | {"tau_summary.json"})
SWEEP_FILES = frozenset({"probes.csv", "sweep.json"})
# each command's report, which names the bundle's kind and fixes its files
REPORTS = {"run": "summary.json", "tau": "tau_summary.json", "sweep": "sweep.json"}
FILES = {"summary.json": RUN_FILES, "tau_summary.json": TAU_FILES,
         "sweep.json": SWEEP_FILES}

SUMMARY_KEYS = frozenset({
    "alpha_used", "condition_estimate", "config", "envelope", "error", "grid", "m",
    "noise", "reg_norm", "reliability", "reliable_fraction", "residual_f",
    "residual_g", "tau_center"})
# the noise is reported twice, under two key sets: the summary's noise and
# the cauchy.csv sidecar
NOISE_KEYS = frozenset({"level", "model", "realized_eps", "seed"})
CAUCHY_KEYS = frozenset({"model", "noise_level", "realized_eps", "seed"})
TAU_SUMMARY_KEYS = frozenset({"config", "panels"})
TAU_PANEL_KEYS = frozenset({"files", "n_polylines", "sides", "tau_center"})
SWEEP_KEYS = frozenset({
    "config", "envelope_c_fits", "probe_near_07", "probes", "probes_in_range",
    "reg_norm_by_level", "reg_norm_log_slope", "spearman_slope_tau"})
REG_NORM_KEYS = frozenset({"eps", "reg_norm"})
PROBES_HEADER = "x,y,tau,err,slope"
CAUCHY_HEADER = "x,y,f,g"
GRID_HEADER = "x,y,value"

# name: (command, preset, config keys); each is written to OUT_ROOT/name
BUNDLES = {
    "run": ("run", "paper-sec5-one-side", {}),
    "run-default": ("run", None, {}),
    # a zero data weight zeroes its channel's rows inside the one fit layout
    "run-wf0": ("run", "paper-sec5-one-side", {"w_f": 0.0}),
    "run-wg0": ("run", "paper-sec5-two-sides", {"w_g": 0.0}),
    # the fixed alpha rule: ExperimentConfig.alpha returns alpha_fixed
    "run-fixed": ("run", "paper-sec5-one-side", {"alpha_rule": "fixed", "alpha_fixed": 1e-4}),
    # three sides: 2m = 386 > K = 256, the fit's primal form far from square
    "run-three-sides": ("run", None, {"gamma_sides": ["left", "bottom", "right"]}),
    "tau": ("tau", None, {}),
    "sweep": ("sweep", "paper-sec5-one-side", {}),
    # gaussian noise through a pipeline: each sweep draws every seed once, in one lane pass
    "sweep-gaussian": ("sweep", "paper-sec5-one-side", {"noise_model": "gaussian"}),
    # one seed: a sweep level is a batch of one, as a run is
    "sweep-one-seed": ("sweep", "paper-sec5-one-side", {"seeds": [7]}),
    # five levels, as the benchmark's sweep-mc has: every level solves into one field stack
    "sweep-five-levels": ("sweep", "paper-sec5-one-side",
                          {"eps_levels": [0.1, 0.03, 0.01, 0.003, 0.001]}),
}

_SVG = "{http://www.w3.org/2000/svg}"
_HREF = "{http://www.w3.org/1999/xlink}href"
_PNG_URI = "data:image/png;base64,"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(path):
    """Parse a JSON artifact, rejecting NaN and Infinity, as
    perfbench/workloads.py::strict_json does."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def inflate_stored(stream: bytes) -> bytes:
    """The data of a zlib stream that holds only stored deflate blocks."""
    assert stream[:2] == b"\x78\x01", "zlib header"
    out, pos, final = bytearray(), 2, False
    while not final:
        assert stream[pos] >> 1 == 0, "stored block"  # block type 0, zero padding
        final = bool(stream[pos] & 1)
        n, n_inv = struct.unpack("<HH", stream[pos + 1:pos + 5])
        assert n ^ n_inv == 0xFFFF, "stored block length"
        out += stream[pos + 5:pos + 5 + n]
        pos += 5 + n
    assert stream[pos:] == struct.pack(">I", zlib.adler32(out)), "adler32"
    return bytes(out)


def decode_png(png: bytes) -> np.ndarray:
    """(rows, columns, 3) pixels of an 8-bit RGB PNG, top row first; every
    chunk's CRC is checked."""
    assert png[:8] == b"\x89PNG\r\n\x1a\n", "PNG signature"
    chunks, pos = [], 8
    while pos < len(png):
        n, = struct.unpack(">I", png[pos:pos + 4])
        kind, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + n]
        assert png[pos + 8 + n:pos + 12 + n] == struct.pack(">I", zlib.crc32(kind + data)), (
            f"CRC of chunk {kind!r}")
        chunks.append((kind, data))
        pos += 12 + n
    kinds = [kind for kind, _ in chunks]
    assert kinds[0] == b"IHDR" and kinds[-1] == b"IEND" and set(kinds[1:-1]) == {b"IDAT"}, kinds
    cols, rows, *layout = struct.unpack(">IIBBBBB", chunks[0][1])
    assert layout == [8, 2, 0, 0, 0], layout  # 8-bit RGB, deflate, no interlace
    raw = inflate_stored(b"".join(data for kind, data in chunks if kind == b"IDAT"))
    assert len(raw) == rows * (1 + 3 * cols), "pixel data size"
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(rows, 1 + 3 * cols)
    assert not lines[:, 0].any(), "filter byte"  # filter byte 0: each row holds the pixels
    return lines[:, 1:].reshape(rows, cols, 3)


def svg_pixels(path) -> np.ndarray:
    """The decoded pixels of a heatmap, which holds exactly one <image>: a
    base64 PNG data URI."""
    images = list(ET.parse(path).getroot().iter(f"{_SVG}image"))
    assert len(images) == 1, f"{path}: {len(images)} images"
    href = images[0].get(_HREF)
    assert href.startswith(_PNG_URI), f"{path}: not a PNG data URI"
    return decode_png(base64.b64decode(href[len(_PNG_URI):], validate=True))


def _lines(path, header: str) -> list[str]:
    """The lines of a CSV artifact after its header, each of which ends in
    "\\n" alone."""
    text = path.read_bytes()
    assert b"\r" not in text and text.endswith(b"\n"), f"{path}: line end"
    head, *lines = text[:-1].decode().split("\n")
    assert head == header, f"{path}: header {head!r}"
    return lines


def _check_run(path: Path, parsed: dict) -> None:
    summary = parsed["summary.json"]
    assert set(summary) == SUMMARY_KEYS, (
        f"{path}: summary.json keys {sorted(set(summary) ^ SUMMARY_KEYS)}")
    assert set(summary["noise"]) == NOISE_KEYS, f"{path}: noise keys {sorted(summary['noise'])}"
    sidecar = parsed["cauchy.json"]
    assert set(sidecar) == CAUCHY_KEYS, f"{path}: cauchy.json keys {sorted(sidecar)}"
    _lines(path / "cauchy.csv", CAUCHY_HEADER)
    # b.csv holds one coefficient per hat, K + 8 for K rim nodes; the grown
    # grid's 4 corner hats are exactly 0, and the 2 hats beside each domain
    # corner, the corner hats' walk neighbours, are equal
    nx, ny = summary["grid"]["nx"], summary["grid"]["ny"]
    b = [float(v) for v in _lines(path / "b.csv", "b")]
    n = 2 * (nx - 1) + 2 * (ny - 1) + 8
    assert len(b) == n, f"{path}: b.csv holds {len(b)} hats, not {n}"
    for c in (0, nx + 1, nx + ny + 2, 2 * nx + ny + 3):
        assert b[c] == 0.0, f"{path}: corner hat {c} is {b[c]}"
        assert b[c - 1] == b[(c + 1) % n], f"{path}: the hats beside corner hat {c} differ"


def _check_tau(path: Path, parsed: dict) -> None:
    summary = parsed["tau_summary.json"]
    assert set(summary) == TAU_SUMMARY_KEYS, (
        f"{path}: tau_summary.json keys {sorted(set(summary) ^ TAU_SUMMARY_KEYS)}")
    for panel in summary["panels"]:
        assert set(panel) == TAU_PANEL_KEYS, f"{path}: panel keys {sorted(panel)}"
        for name in panel["files"]:
            assert (path / name).is_file(), f"{path}: a panel lists {name}, which is missing"


def _check_sweep(path: Path, parsed: dict) -> None:
    # probes.csv and sweep.json's probes are one table, row for row, from
    # which probe_near_07 and probes_in_range are read; the envelope
    # constants run level-major over the levels in (0, 1), seeds in config
    # order; the penalty norms list one entry per level, in config order
    sweep = parsed["sweep.json"]
    assert set(sweep) == SWEEP_KEYS, f"{path}: sweep.json keys {sorted(set(sweep) ^ SWEEP_KEYS)}"
    lines = _lines(path / "probes.csv", PROBES_HEADER)
    assert len(lines) == len(sweep["probes"]), f"{path}: {len(lines)} probes.csv rows"
    cols = PROBES_HEADER.split(",")
    for k, (line, probe) in enumerate(zip(lines, sweep["probes"])):
        assert [float(v) for v in line.split(",")] == [probe[c] for c in cols], (
            f"{path}: probes.csv row {k} is not sweep.json's probe {k}")
    assert sweep["probe_near_07"] in sweep["probes"], f"{path}: probe_near_07 is no probe"
    in_range = sum(0.3 <= p["tau"] <= 0.9 for p in sweep["probes"])
    assert sweep["probes_in_range"] == in_range, f"{path}: probes_in_range is not {in_range}"
    levels, seeds = sweep["config"]["eps_levels"], sweep["config"]["seeds"]
    fits = [(c["eps"], c["seed"]) for c in sweep["envelope_c_fits"]]
    assert fits == [(lv, s) for lv in levels if 0 < lv < 1 for s in seeds], (
        f"{path}: envelope_c_fits order")
    assert [r["eps"] for r in sweep["reg_norm_by_level"]] == levels, (
        f"{path}: reg_norm_by_level order")
    assert all(set(r) == REG_NORM_KEYS for r in sweep["reg_norm_by_level"]), (
        f"{path}: reg_norm_by_level keys")


def _check_heatmap(svg: Path, cfg: dict) -> None:
    """A heatmap's PNG passes its CRCs and holds one pixel per row of the
    grid CSV of the same stem: header x,y,value, then one node per line at
    the grid's nodes, row-major with j outer."""
    height, width, _ = svg_pixels(svg).shape
    csv = svg.with_suffix(".csv")
    lines = _lines(csv, GRID_HEADER)
    assert len(lines) == width * height, f"{csv}: {len(lines)} nodes, not {width} x {height}"
    xy = np.array([line.split(",")[:2] for line in lines], dtype=float)
    assert np.array_equal(xy[:, 0], np.tile(cfg["x0"] + cfg["h"] * np.arange(width), height)), (
        f"{csv}: x node order")
    assert np.array_equal(xy[:, 1], np.repeat(cfg["y0"] + cfg["h"] * np.arange(height), width)), (
        f"{csv}: y node order")


def check_bundle(path) -> dict:
    """Check one bundle directory against the contract, and return its JSON
    artifacts by name, each parsed strictly."""
    path = Path(path)
    found = {p.name for p in path.iterdir()}
    reports = found & FILES.keys()
    assert len(reports) == 1, f"{path}: reports {sorted(reports)}, not one"
    report, = reports
    files = FILES[report]
    assert found == files, f"{path}: files {sorted(found ^ files)} break the file set"
    parsed = {name: strict_json(path / name) for name in sorted(files) if name.endswith(".json")}
    {"summary.json": _check_run, "tau_summary.json": _check_tau,
     "sweep.json": _check_sweep}[report](path, parsed)
    for name in sorted(files):
        if name.endswith(".svg"):
            _check_heatmap(path / name, parsed[report]["config"])
    return parsed


def write(harmrec, root) -> None:
    """Write every bundle of ``BUNDLES`` to ``root``/name; ``harmrec(argv)``
    runs one harmrec command line and returns its exit code."""
    root = Path(root)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, preset, keys) in BUNDLES.items():
            argv = [command, "--out", str(root / name)]
            if preset:
                argv += ["--preset", preset]
            if keys:
                config = Path(tmp) / f"{name}.json"
                config.write_text(json.dumps(keys))
                argv += ["--config", str(config)]
            assert harmrec(argv) == 0, f"harmrec {' '.join(argv)} failed"


def check(root) -> None:
    """Check every bundle of ``BUNDLES`` under ``root``: each is of its
    command's kind and echoes its config keys, and ``root`` holds nothing
    else."""
    root = Path(root)
    found = {p.name for p in root.iterdir()}
    assert found == BUNDLES.keys(), f"{root}: bundles {sorted(found ^ BUNDLES.keys())}"
    for name, (command, _, keys) in BUNDLES.items():
        parsed = check_bundle(root / name)
        report = REPORTS[command]
        assert report in parsed, f"{name}: not a {command} bundle"
        config = parsed[report]["config"]
        assert all(config[k] == v for k, v in keys.items()), f"{name}: config {keys} not echoed"
        heatmaps = sum(n.endswith(".svg") for n in FILES[report])
        print(f"{name}: {len(FILES[report])} files, {len(parsed)} JSON artifacts, "
              f"{heatmaps} heatmaps checked")


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python tests/bundle_check.py HARMREC OUT_ROOT", file=sys.stderr)
        return 2
    if not __debug__:  # python -O strips every assert, so nothing would be checked
        print("bundle_check needs assertions: run it without -O", file=sys.stderr)
        return 2
    harmrec, root = args
    write(lambda command: subprocess.run([harmrec, *command]).returncode, root)
    check(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
