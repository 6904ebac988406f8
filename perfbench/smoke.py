"""Self-test of the benchmark: every workload at coarse h, in a few seconds each.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --smoke`` untraced once and traced twice
with one seed, and checks that:

* the last line of output is the result object, with every end-to-end
  (untraced) or per-layer (traced) metric of ``BENCHMARK.json`` under its
  unit, and the report lists ``op_s.n``, ``fail_ratio`` and the
  workload's accuracy metric (untraced) or the self-time check (traced);
* the correctness gate ran on every operation;
* the exact counts agree between the two traced runs.

It also checks that the benchmark fails, without a result line, in a
directory that holds only ``BENCHMARK.json`` and the benchmark.  The gates
encode the paper's acceptance criteria at the reference h, so at coarse h
some fail; the smoke test checks that they run, not that they pass.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    check(proc.returncode == 0, f"{what} exits 0 ({proc.stderr.strip()[-300:]})")
    result = json.loads(proc.stdout.splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["attempted"] >= 1, f"{what} prints the result object")
    return result


def check_metrics(result: dict, specs: list[dict], what: str) -> None:
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        check(got is not None and got["unit"] == spec["unit"]
              and isinstance(got["value"], (int, float)),
              f"{what} reports {spec['name']} in {spec['unit']}")


def main() -> int:
    exact = [name for name, _, is_exact, _ in LAYER_METRICS if is_exact]
    for name, workload in WORKLOADS.items():
        proc = run(name, 0)
        result = result_of(proc, f"{name} untraced")
        check_metrics(result, SPEC["end_to_end"], name)
        extra = ["op_s.n", "fail_ratio"] + ([workload.accuracy[0]] if workload.accuracy else [])
        for metric in extra:
            check(any(line.split()[:1] == [metric] for line in proc.stdout.splitlines()),
                  f"{name} report lists {metric}")
        record = json.loads((BENCH / "results" / f"{name}-seed{SEED}-trace0-smoke.json")
                            .read_text())
        check(all(op["checks"] > 0 for op in record["ops"]),
              f"{name} gate ran on all {len(record['ops'])} operations")

        counts = []
        for attempt in (1, 2):
            proc = run(name, 1)
            traced = result_of(proc, f"{name} traced #{attempt}")
            check("self times sum to" in proc.stdout,
                  f"{name} traced #{attempt} reports the self-time check")
            check_metrics(traced, SPEC["per_layer"], f"{name} traced #{attempt}")
            counts.append({k: traced["metrics"][k]["value"] for k in exact})
        check(counts[0] == counts[1], f"{name} exact counts repeat: {counts[0]}")

    (BENCH / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run("tau-128", 0, cwd=Path(bare))
        last = proc.stdout.splitlines()[-1:] or [""]
        check(proc.returncode != 0 and not last[0].startswith("{"),
              "fails without a result line where src/ is missing")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
