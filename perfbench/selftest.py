"""Self-test of the benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

For each workload it makes two traced runs on the same seed and checks:
- the result line has the contract's keys and every per-layer metric;
- the exact counts repeat exactly between the two runs;
- the traced breakdown shows the dominant layer the workload's reason names.
It also checks that the benchmark refuses to run, with a nonzero exit code and
no result line, in a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import MODULES as LAYERS
from workloads import planned_steps

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
TIMEOUT_S = 180

EXACT_COUNTS = (
    "runner.steps",
    "runner.stationary_steps",
    "runner.run_sgd.calls",
    "runner.diverged_runs",
    "runner.trace_bytes",
    "objectives.components_evaluated",
    "objectives.batch_eval.calls",
    "objectives.full_eval.calls",
    "stepsizes.stepsize.calls",
    "runner.trace_to_csv.rows",
    "runner.trace_to_csv.bytes",
    "cli.pickled_trace_bytes",
    "verify.checks_run",
    "trace.spans",
    "output.cells",
)


def run(workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def traced(workload: str, spec: dict) -> dict:
    proc = run(workload)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, result
    names = {m["name"] for m in spec["per_layer"]}
    assert set(result["metrics"]) == names, names ^ set(result["metrics"])
    return {k: v["value"] for k, v in result["metrics"].items()}


def dominant(m: dict) -> str:
    return max(LAYERS, key=lambda layer: m[f"layer.{layer}.self_s"])


def check_workload(workload: str, spec: dict) -> None:
    first, second = traced(workload, spec), traced(workload, spec)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], f"{workload}: {name} {first[name]} != {second[name]}"
    # steps_per_s is computed from the planned step count; the trace counts them
    assert first["runner.steps"] == planned_steps(workload), first["runner.steps"]
    if workload == "mc_verify":
        assert dominant(first) == "runner", dominant(first)
        assert first["verify.checks_run"] > 0
    elif workload == "logistic_run":
        assert dominant(first) == "objectives", dominant(first)
    elif workload == "trace_pool":
        parent = first["runner.trace_to_csv.s"] + first["cli.fanout_s"]
        assert parent > 0.5 * first["trace.wall_s"], (parent, first["trace.wall_s"])
        others = [first[f"layer.{layer}.self_s"] for layer in LAYERS if layer not in ("runner", "cli")]
        assert min(first["runner.trace_to_csv.s"], first["cli.fanout_s"]) > max(others)
    print(f"ok {workload}: counts repeat, dominant layer {dominant(first)}")


def check_refuses_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("mc_verify", cwd=bare)
        assert proc.returncode != 0, "ran without the program under test"
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok bare directory: refused with exit code", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    check_refuses_without_program()
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(workload, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
