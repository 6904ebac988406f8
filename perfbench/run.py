"""Benchmark of the harmrec pipeline, end to end and per layer.

    python3 perfbench/run.py --workload run-sec5 --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Workloads are described in ``workloads.py``.  One run:

1. warms the process up with one cycle, untimed and ungated;
2. repeats the workload's cycle of operations until ``--seconds`` of
   operations have passed, timing each operation and running its correctness
   gate after it;
3. between operations, times ``setup_s``: a fresh interpreter that imports
   harmrec and resolves the workload's configs.  The samples are spread
   evenly over the operations, so that a slow minute of a shared machine
   moves few of them, and the median is reported;
4. prints a report, writes ``results/<run>.json`` (and the spans of a traced
   run), and prints one JSON line with the end-to-end metrics (``--trace
   0``) or the per-layer metrics (``--trace 1``).

With ``--trace 1`` cycles alternate between traced and untraced, so the
difference of their median operation times is the tracing overhead.
``--smoke`` runs one cycle (two when traced) at coarse h, without warm-up,
for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import MB, Tracer, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 7

# Runs in a fresh interpreter; prints monotonic times at its start, after
# `import harmrec`, and after resolving the configs.
SETUP_CHILD = """\
import json, sys, time
t0 = time.monotonic()
sys.path.insert(0, sys.argv[1])
import harmrec
t1 = time.monotonic()
from harmrec.config import resolve_config
for kwargs in json.loads(sys.argv[2]):
    resolve_config(**kwargs)
print(json.dumps([t0, t1, time.monotonic()]))
"""


class SetupSampler:
    """Set-up time samples, each from a fresh interpreter.

    The first start is not measured: it leaves the bytecode cache warm."""

    def __init__(self, config_kwargs: list[dict], total: int):
        self.argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(config_kwargs)]
        self.total = total
        self.samples: list[dict] = []
        self._start()

    def _start(self) -> dict:
        start = time.monotonic()
        out = subprocess.run(self.argv, capture_output=True, text=True, check=True,
                             cwd=ROOT, timeout=120)
        t0, t1, t2 = json.loads(out.stdout.splitlines()[-1])
        return {"setup_s": t2 - start, "import_s": t1 - t0, "resolve_s": t2 - t1}

    def catch_up(self, fraction: float) -> None:
        """Take the samples due once `fraction` of the run is done."""
        while len(self.samples) < int(self.total * min(fraction, 1.0)):
            self.samples.append(self._start())

    def medians(self) -> dict:
        return {key: statistics.median(s[key] for s in self.samples)
                for key in self.samples[0]}


def _blas() -> dict:
    import numpy

    info = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"vendor": f"{info.get('name')} {info.get('version', '')}".strip(),
            "threads": threads}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(cfg) -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    try:
        from harmrec.kernels import resolve_backend
        backend = resolve_backend()
    except ImportError:
        backend = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "numba_imports": have_numba,
        "solver": cfg.raw.get("solver"),
        "kernel_backend": backend,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_op(workload, pipeline, cfg, work: Path, tracer, op_id: int) -> dict:
    """One timed operation, then its correctness gate (untimed)."""
    out = Path(tempfile.mkdtemp(dir=work))
    try:
        if tracer is not None:
            tracer.op = op_id
            root = tracer.open("op")
        start = time.perf_counter()
        try:
            result = workload.run(pipeline, cfg, out)
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.close(root)
                tracer.op = None
        gate = workload.gate(result, out)
        failed = [name for name, ok in gate.checks.items() if not ok]
        return {"seconds": seconds, "ok": gate.ok, "checks": len(gate.checks),
                "failed_checks": failed, "accuracy": gate.accuracy}
    except Exception as exc:  # an operation that raises counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        return {"seconds": None, "ok": False, "checks": 0,
                "failed_checks": [f"raised {type(exc).__name__}: {exc}"],
                "accuracy": None}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_cycles(workload, pipeline, configs, work, seconds, tracer, smoke, setup):
    """Closed loop over whole cycles until `seconds` of operations have passed.

    After each operation it takes the set-up samples then due, so they spread
    evenly over the run; their time does not count toward `seconds`.
    Returns the operations and, per traced cycle, its operation ids."""
    ops, traced_cycles = [], []
    spent = 0.0
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 0
        ids = []
        if traced:
            tracer.install()
        try:
            for label, cfg in configs:
                start = time.perf_counter()
                op = run_op(workload, pipeline, cfg, work, tracer if traced else None,
                            len(ops))
                spent += time.perf_counter() - start
                ids.append(len(ops))
                ops.append({"label": label, "traced": traced, **op})
                setup.catch_up(spent / seconds)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_cycles.append(ids)
        k += 1
        enough = smoke or spent >= seconds
        if enough and (tracer is None or k >= 2):
            setup.catch_up(1.0)
            return ops, traced_cycles


def warm_up(workload, pipeline, configs, work, tracer) -> None:
    """Run the cycle once, ungated, so first-call costs fall outside the
    measured operations: the first `lstsq` of a size in a process can take
    a second in OpenBLAS set-up, and a coarse warm-up does not cover it."""
    if tracer is not None:
        tracer.install()
    try:
        for _, cfg in configs:
            out = Path(tempfile.mkdtemp(dir=work))
            try:
                workload.run(pipeline, cfg, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99, p95, p90, p75 with at least ten samples above it."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one coarse cycle, no warm-up (benchmark self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "harmrec" / "__init__.py").is_file():
        print(f"error: harmrec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harmrec
    from harmrec import pipeline
    from harmrec.config import resolve_config
    if SRC not in Path(harmrec.__file__).resolve().parents:
        print(f"error: harmrec imported from {harmrec.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    cycle = workload.cycle(args.seed, args.smoke)
    setup = SetupSampler([kw for _, kw in cycle], 1 if args.smoke else SETUP_SAMPLES)
    configs = [(label, resolve_config(**kw)) for label, kw in cycle]
    tracer = Tracer() if args.trace else None

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as work:
        if not args.smoke:
            warm_up(workload, pipeline, configs, Path(work), tracer)
        ops, traced_cycles = run_cycles(workload, pipeline, configs, Path(work),
                                        args.seconds, tracer, args.smoke, setup)
    setup_medians = setup.medians()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB

    failed = sum(not op["ok"] for op in ops)
    untraced = [op["seconds"] for op in ops if not op["traced"] and op["seconds"] is not None]
    traced = [op["seconds"] for op in ops if op["traced"] and op["seconds"] is not None]
    if not untraced or (tracer is not None and not traced):
        print("error: no operation completed; see the tracebacks above", file=sys.stderr)
        return 1
    report = {}  # name -> (value, unit); every metric this run measured
    if tracer is None:
        report["setup_s"] = (setup_medians["setup_s"], "s")
        report["op_s.p50"] = (_median(untraced), "s")
        report["op_s.n"] = (len(untraced), "count")
        tail = tail_percentile(untraced)
        if tail is not None:
            report[f"op_s.p{tail[0]}"] = (tail[1], "s")
        report["peak_rss_mb"] = (peak_rss_mb, "MB")
        report["fail_ratio"] = (failed / len(ops), "1")
        if workload.accuracy is not None:
            name, unit = workload.accuracy
            report[name] = (_median(op["accuracy"] for op in ops), unit)
        headline = ["setup_s", "op_s.p50", "peak_rss_mb"]
        counts_repeat = True
    else:
        report["config.resolve_s"] = (setup_medians["resolve_s"], "s")
        report["setup.import_s"] = (setup_medians["import_s"], "s")
        layers, counts_repeat = layer_metrics(tracer, traced_cycles)
        report.update(layers)
        report["tikhonov.first_reconstruct_s"] = (tracer.first("tikhonov.reconstruct"), "s")
        report["trace.traced_op_s.p50"] = (_median(traced), "s")
        report["trace.untraced_op_s.p50"] = (_median(untraced), "s")
        report["trace.overhead_s"] = (_median(traced) - _median(untraced), "s")
        headline = list(report)

    env = environment(configs[0][1])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "inputs": [kw for _, kw in cycle], "setup": setup.samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "counts_repeat": counts_repeat,
        "ops": ops,
    }
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(RESULTS / f"{name}-spans.jsonl", "w") as fh:
            for span in tracer.to_jsonable():
                fh.write(json.dumps(span) + "\n")

    print(f"harmrec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          + (" smoke" if args.smoke else ""))
    print("environment: " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in report.items():
        print(f"  {key:<30} {value!r:>24} {unit}")
    print(f"  ops attempted {len(ops)}, failed {failed}, gate checks per op "
          f"{sorted({op['checks'] for op in ops})}, counts repeat {counts_repeat}")
    if tracer is not None:
        print(f"  self times sum to {report['trace.self_sum_s'][0]:.4f} s per traced op "
              f"(untraced op_s.p50 {report['trace.untraced_op_s.p50'][0]:.4f} s, "
              f"tracing overhead {report['trace.overhead_s'][0]:+.4f} s)")
    for op in ops:
        if op["failed_checks"]:
            print(f"  failed {op['label']}: {'; '.join(op['failed_checks'])}")
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in headline},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
