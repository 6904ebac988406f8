"""The bundle contract of tests/bundle_check.py, run in process: the bundles
that the numpy-only CI job writes keep it, and each break of it fails."""

import base64
import json
import re
import shutil
from pathlib import Path

import pytest

import bundle_check
from bundle_check import check, check_bundle, write
from harmrec.cli import main


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    write(main, root)
    return root


def test_every_bundle_keeps_the_contract(bundles):
    check(bundles)


def _remove_file(path):
    (path / "error.csv").unlink()


def _add_file(path):
    (path / "notes.txt").write_text("not an artifact\n")


def _add_summary_key(path):
    summary = json.loads((path / "summary.json").read_text())
    (path / "summary.json").write_text(json.dumps({**summary, "extra": 1}, sort_keys=True))


def _swap_probe_rows(path):
    header, first, second, *rest = (path / "probes.csv").read_bytes().split(b"\n")
    assert first != second
    (path / "probes.csv").write_bytes(b"\n".join([header, second, first, *rest]))


def _crlf_line_end(path):
    csv = path / "error.csv"
    csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n", 1))


def _flip_png_crc(path):
    svg = path / "tau.svg"
    text = svg.read_text()
    head, rest = text.split("data:image/png;base64,")
    payload, tail = rest.split('"', 1)
    png = bytearray(base64.b64decode(payload))
    png[8 + 8 + 13] ^= 0x01  # the first byte of IHDR's CRC
    svg.write_text(f'{head}data:image/png;base64,{base64.b64encode(png).decode()}"{tail}')


def _list_missing_tau_file(path):
    summary = json.loads((path / "tau_summary.json").read_text())
    summary["panels"][0]["files"][0] = "tau_elsewhere.csv"
    (path / "tau_summary.json").write_text(json.dumps(summary, sort_keys=True))


@pytest.mark.parametrize("bundle,breaks,match", [
    ("run", _remove_file, "file set"),
    ("run", _add_file, "file set"),
    ("run", _add_summary_key, "summary.json keys"),
    ("sweep", _swap_probe_rows, "probes.csv row 0"),
    ("run", _crlf_line_end, "line end"),
    ("run", _flip_png_crc, "CRC of chunk b'IHDR'"),
    ("tau", _list_missing_tau_file, "tau_elsewhere.csv, which is missing"),
], ids=["missing-file", "extra-file", "summary-extra-key", "probes-rows-swapped",
        "crlf-line-end", "png-crc-flipped", "tau-panel-file-missing"])
def test_check_catches_each_break(bundles, tmp_path, bundle, breaks, match):
    path = shutil.copytree(bundles / bundle, tmp_path / bundle)
    check_bundle(path)
    breaks(path)
    with pytest.raises(AssertionError, match=match):
        check_bundle(path)


def test_readme_artifacts_name_every_key_and_file():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Artifacts\n", 1)[1].split("\n## ", 1)[0]
    quoted = set(re.findall(r"`([^`]+)`", section))
    for name in ("SUMMARY_KEYS", "NOISE_KEYS", "CAUCHY_KEYS", "TAU_SUMMARY_KEYS",
                 "TAU_PANEL_KEYS", "SWEEP_KEYS", "REG_NORM_KEYS", "RUN_FILES", "SWEEP_FILES"):
        missing = getattr(bundle_check, name) - quoted
        assert not missing, f"README's Artifacts does not name {name} {sorted(missing)}"
