"""The benchmark's span targets still exist in the library.

``perfbench/spans.py`` wraps library attributes by name, and a traced
benchmark run stops at the first one that is missing.  These tests load that
file as it is and trace one ``run`` and one ``sweep``, so that a rename
fails here rather than in the next benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from harmrec import validate_config
from harmrec.pipeline import run_experiment, run_sweep

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_span_target_resolves(spans):
    for mod_name, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_traced_run_and_sweep_give_every_layer_metric(spans, tmp_path):
    cfg = validate_config({"h": 1 / 16,
                           "eps_levels": [1e-1, 1e-2, 1e-3], "seeds": [1, 2]})
    ops = [lambda: run_experiment(cfg, out_dir=tmp_path / "run"),
           lambda: run_sweep(cfg)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            tracer.op = op_id
            root = tracer.open("op")
            try:
                op()
            finally:
                tracer.close(root)
                tracer.op = None
    finally:
        tracer.uninstall()
    names = {name for name, *_ in spans.LAYER_METRICS}
    for op_id in range(len(ops)):
        metrics, _ = spans.layer_metrics(tracer, [[op_id]])
        assert names <= set(metrics)
        # one reconstruct per noise level; the span counter sizes the stacked
        # matrix from the K eigenvalues of the penalty factor L and the data
        # rows, though the fit never forms it
        assert metrics["tikhonov.reconstructs"][0] == (1 if op_id == 0 else 3)
        assert metrics["tikhonov.stack_rows"][0] > metrics["tikhonov.stack_cols"][0] > 0
        # the pipeline builds its fields through `tikhonov.reconstruct_field`,
        # the attribute the span wraps, and solves for the exponent field once
        assert metrics["tikhonov.field_s"][0] > 0
        assert metrics["poisson.solve_calls.measure"][0] == 1
    # the library is left unwrapped
    for mod_name, attr, name, _ in spans.TARGETS:
        assert getattr(getattr(importlib.import_module(mod_name), attr),
                       "__wrapped__", None) is None, name
