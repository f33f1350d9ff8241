"""Benchmark of the ngn package, end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_verify --seed 1 --seconds 20 --trace 0

Workloads and metric definitions live in BENCHMARK.json. With `--trace 0`
the run measures the end-to-end metrics with no instrumentation; with
`--trace 1` it also runs repetitions with the outside-in span tracer
installed and reports the per-layer metrics of the fastest one and the
tracing overhead.

The host's single-core speed drifts by 20-50% over seconds to minutes,
more than any run length can average out. So every repetition is timed
between two runs of a fixed reference kernel (`reference.py`), every
set-up probe runs the kernel itself after its set-up, and each time is
normalised by the kernel's time next to it: `wall_s` and `setup_s` are medians
of these normalised times, in seconds on a core of the kernel's nominal
speed, and `steps_per_s` is computed from `wall_s`. The set-up probes are
spread over the run. The raw wall times (fastest, median and the highest
percentile with at least ten samples beyond it, with the sample count)
and the kernel's own times are kept in the run record.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it is the
run record: environment, provenance, the workload's reason for existing,
wall-time samples and every metric, also written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from reference import NOMINAL_S, Yardstick, normalised

HERE = Path(__file__).resolve().parent
OUT_ROOT = wl.ROOT / ".perfbench_out"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
# per-step cost at the ROADMAP re-anchor (seed code, Python 3.11.7, numpy 2.4.6)
ROADMAP_US_PER_STEP = {"two_quadratics": 14.4}
FAMILIES = ("two_quadratics", "nonconvex_sum", "logistic")
# On trace_pool the workers' spans stay in the child processes, so these
# metrics come from a second, traced `--jobs 1` pass of the same config.
WORKER_SIDE = ("objectives.", "stepsizes.", "runner.run_sgd.", "runner.steps",
               "runner.stationary_steps", "runner.self_us_per_step",
               "runner.diverged_runs", "runner.trace_bytes", "family.")


class Bench:
    """One workload at one seed: runs operations and keeps the books."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[str] | None = None
        self.cells = wl.CellCount()
        self.config = work / "bench.cfg"
        self.steps_per_op = wl.planned_steps(workload)
        if workload == "mc_verify":
            self.inputs = wl.mc_inputs(seed)
            self.config.write_text("")  # the set-up probe takes a config path for every workload
            self.jobs = 1
        else:
            self.run = wl.cli_run(workload, seed)
            self.config.write_text(self.run.text)
            self.jobs = self.run.jobs
        self.reps = 0

    def timed(self, jobs: int | None = None, keep: bool = False) -> float:
        """Run one operation; return its wall time. Checks run after the clock stops."""
        rep = self.reps
        self.reps += 1
        out_dir = self.work / f"out{rep}"
        t0 = time.perf_counter()
        if self.workload == "mc_verify":
            outcome, rows = wl.mc_verify_once(self.inputs)
        else:
            outcome = wl.cli_once(self.config, out_dir, jobs or self.jobs)
        elapsed = time.perf_counter() - t0
        self._account(outcome)
        if rep == 0:
            if self.workload == "mc_verify":
                wl.check_verify_rows(rows, self.cells)
            else:
                self.problems += wl.check_cli_outputs(out_dir, self.run, self.cells)
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed

    def _account(self, outcome: wl.Outcome) -> None:
        if self.reference is None:
            self.reference = outcome.digests
        self.attempted += len(outcome.ok)
        for i, (ok, digest) in enumerate(zip(outcome.ok, outcome.digests)):
            if digest != self.reference[i]:
                ok = False
                self.problems.append(f"operation {i} output hash differs from repetition 0")
            self.failed += not ok
        self.problems += outcome.problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0


def probe_setup(bench: Bench) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the workload's first step.

    Also returns the reference kernel's time in that interpreter.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), bench.workload,
           str(bench.seed), str(bench.config)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise wl.SetupError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, float(rest)


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process, plus its largest reaped child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value.

    With 10 samples or fewer it is the maximum.
    """
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def wall_summary(walls: list[float]) -> dict:
    pct, value = tail(walls)
    return {"wall_s_samples": len(walls), "wall_fastest_s": min(walls),
            "wall_median_s": statistics.median(walls),
            f"wall_p{pct:.0f}_s": value, "wall_samples_s": walls}


def timed_reps(bench: Bench, seconds: float, probes: int = 0) -> dict:
    """Repeat the operation for `seconds`; run `probes` set-up probes spread over it.

    Returns the raw wall times and, normalised by the reference kernel, the
    wall and set-up times.
    """
    yardstick = Yardstick()
    walls, norm_walls, setup = [], [], []
    while sum(walls) < seconds or not walls:
        walls.append(bench.timed())
        norm_walls.append(yardstick.normalise(walls[-1]))
        if len(setup) < probes and sum(walls) >= len(setup) * seconds / probes:
            setup.append(probe_setup(bench))
    while len(setup) < probes:
        setup.append(probe_setup(bench))
    norm_setup = [normalised(*probe) for probe in setup]
    return {"walls": walls, "norm_walls": norm_walls, "norm_setup": norm_setup,
            "setup": [elapsed for elapsed, _ in setup],
            "setup_kernel": [kernel for _, kernel in setup], "kernel": yardstick.samples}


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    reps = timed_reps(bench, seconds, probes=SETUP_REPEATS)
    rss = peak_rss_mb(with_children=bench.workload == "trace_pool")
    if bench.workload == "trace_pool":
        bench.timed(jobs=1)  # the serial run must write the same bytes as the pool
    wall = statistics.median(reps["norm_walls"])
    metrics = {
        "setup_s": statistics.median(reps["norm_setup"]),
        "wall_s": wall,
        "steps_per_s": bench.steps_per_op / wall,
        "peak_rss_mb": rss,
        "pass_frac": 1.0 - bench.failed / bench.attempted,
        "output_valid_frac": 1.0 - bench.cells.rejected / max(bench.cells.cells, 1),
    }
    return metrics, {
        **wall_summary(reps["walls"]),
        "norm_wall_samples_s": reps["norm_walls"],
        "setup_samples_s": reps["setup"],
        "norm_setup_samples_s": reps["norm_setup"],
        "setup_kernel_samples_s": reps["setup_kernel"],
        "kernel_nominal_s": NOMINAL_S,
        "kernel_median_s": statistics.median(reps["kernel"]),
        "kernel_samples_s": reps["kernel"],
    }


def traced_rep(bench: Bench, jobs: int | None = None):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wall = bench.timed(jobs=jobs, keep=True)
    finally:
        tracer.uninstall()
    return tracer, wall


def discard(tracer) -> None:
    """Delete the output files of a traced repetition that is not reported."""
    for out_dir in {path.parent for path in tracer.csv_paths}:
        shutil.rmtree(out_dir, ignore_errors=True)


def fastest_traced_rep(bench: Bench, seconds: float):
    """Traced repetitions for `seconds`; the tracer and wall time of the fastest."""
    best, spent = None, 0.0
    while spent < seconds or best is None:
        tracer, wall = traced_rep(bench)
        spent += wall
        if best is None or wall < best[1]:
            if best is not None:
                discard(best[0])
            best = (tracer, wall)
        else:
            discard(tracer)
    return best


def layer_metrics(tracer, wall: float, checks: tuple[int, int]) -> dict:
    """Per-layer metrics of one traced repetition that took `wall` seconds."""
    from tracer import MODULES

    spans = tracer.spans()

    def get(name: str, key: str = "s"):
        return spans[name][key] if name in spans else 0

    def per_call_us(name: str) -> float:
        return 1e6 * get(name) / get(name, "calls") if get(name, "calls") else 0.0

    m = {}
    for name in ("objectives.batch_eval", "stepsizes.stepsize"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.us_per_call"] = per_call_us(name)
    m["objectives.components_evaluated"] = tracer.components
    m["objectives.full_eval.calls"] = get("objectives.full_eval", "calls")
    m["objectives.full_eval.self_s"] = get("objectives.full_eval", "self_s")
    m["objectives.full_grad_sq_many.s"] = get("objectives.full_grad_sq_many")
    m["objectives.build_s"] = get("objectives.build")
    m["stepsizes.sigma_at.self_s"] = get("stepsizes.sigma_at", "self_s")
    # run_sgd marks a step stationary exactly when stepsize() returned None
    m["stepsizes.stationary_frac"] = (tracer.run_stationary / m["stepsizes.stepsize.calls"]
                                      if m["stepsizes.stepsize.calls"] else 0.0)

    m["runner.run_sgd.calls"] = get("runner.run_sgd", "calls")
    m["runner.run_sgd.self_s"] = get("runner.run_sgd", "self_s")
    run_durations = spans["runner.run_sgd"]["durations"] if "runner.run_sgd" in spans else []
    m["runner.run_sgd.median_s"] = statistics.median(run_durations) if len(run_durations) else 0.0
    m["runner.run_sgd.tail_pct"], m["runner.run_sgd.tail_s"] = (
        tail(run_durations) if len(run_durations) else (0.0, 0.0))
    m["runner.steps"] = tracer.run_steps
    m["runner.stationary_steps"] = tracer.run_stationary
    m["runner.self_us_per_step"] = (1e6 * m["runner.run_sgd.self_s"] / tracer.run_steps
                                    if tracer.run_steps else 0.0)
    m["runner.diverged_runs"] = tracer.run_diverged
    m["runner.trace_bytes"] = tracer.run_trace_bytes

    rows = sum(len(p.read_text().splitlines()) - 1 for p in tracer.csv_paths)
    m["runner.trace_to_csv.s"] = get("runner.trace_to_csv")
    m["runner.trace_to_csv.rows"] = rows
    m["runner.trace_to_csv.bytes"] = sum(p.stat().st_size for p in tracer.csv_paths)
    m["runner.trace_to_csv.us_per_row"] = 1e6 * m["runner.trace_to_csv.s"] / rows if rows else 0.0

    m["theory.context_s"] = get("theory.context")
    m["theory.noise_estimate_s"] = get("theory.noise_estimate")
    m["theory.bound_s"] = get("theory.bound")
    for check in ("check_convex_rate", "check_nonconvex_rate", "check_annealed_rate"):
        m[f"verify.{check}.s"] = get(f"verify.{check}")
    m["verify.checks_run"], m["verify.checks_failed"] = checks

    first = {name: (spans[name]["durations"][0] if name in spans else 0.0)
             for name in ("cli.build_problem", "cli.build_policy")}
    m["cli.main_s"] = get("cli.main")
    m["cli.parse_config_s"] = get("cli.parse_config")
    m["cli.build_problem_s"] = get("cli.build_problem")
    m["cli.build_problem.calls"] = get("cli.build_problem", "calls")
    parent_setup = m["cli.parse_config_s"] + first["cli.build_problem"] + first["cli.build_policy"]
    m["cli.fanout_s"] = (m["cli.main_s"] - m["runner.trace_to_csv.s"] - parent_setup
                         if m["cli.main_s"] else 0.0)
    m["cli.pickled_trace_bytes"] = tracer.pickled_trace_bytes()

    for module in MODULES:
        own = sum(v["self_s"] for k, v in spans.items() if k.startswith(module + "."))
        m[f"layer.{module}.self_s"] = own
        m[f"layer.{module}.self_frac"] = own / wall

    for family in FAMILIES:
        steps = sum(n for fam, n in tracer.runs if fam == family)
        secs = sum(float(d) for d, (fam, _) in zip(run_durations, tracer.runs) if fam == family)
        us = 1e6 * secs / steps if steps else 0.0
        m[f"family.{family}.us_per_step"] = us
        if family in ROADMAP_US_PER_STEP:
            m[f"family.{family}.roadmap_ratio"] = us / ROADMAP_US_PER_STEP[family]
    m["trace.spans"] = len(tracer.start)
    return m


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from tracer import wrapper_cost_us

    cost = wrapper_cost_us()
    walls = timed_reps(bench, seconds / 2)["walls"]
    untraced = min(walls)
    before = (bench.attempted, bench.failed)
    tracer, wall = traced_rep(bench)
    checks = (0, 0)
    if bench.workload == "mc_verify":
        checks = (bench.attempted - before[0], bench.failed - before[1])
    # the exact counts are the same in every repetition; the times of the
    # fastest are compared with the fastest untraced one
    faster, faster_wall = fastest_traced_rep(bench, seconds / 2 - wall)
    if faster_wall < wall:
        discard(tracer)
        tracer, wall = faster, faster_wall
    else:
        discard(faster)
    metrics = layer_metrics(tracer, wall, checks)
    extra = {"untraced_names": tracer.missing}
    if bench.workload == "trace_pool":
        serial, serial_wall = traced_rep(bench, jobs=1)
        worker = layer_metrics(serial, serial_wall, checks)
        metrics.update({k: v for k, v in worker.items() if k.startswith(WORKER_SIDE)})
        extra["worker_side_from"] = (
            f"a traced --jobs 1 pass ({serial_wall:.3f} s); worker spans of the "
            f"--jobs {bench.jobs} pass are lost in the child processes")
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.overhead_frac": (wall - untraced) / untraced,
        "trace.wrapper_cost_us": cost,
        "failed_frac": bench.failed / bench.attempted,
        "output_error_frac": bench.cells.rejected / max(bench.cells.cells, 1),
        "output.cells": bench.cells.cells,
    })
    extra.update(wall_summary(walls))
    return metrics, extra


def git_sha() -> str:
    head = wl.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = wl.ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (wl.ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "pool_start_method": multiprocessing.get_start_method(),
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    try:
        wl.import_ngn()
    except (wl.SetupError, ImportError) as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        bench = Bench(args.workload, args.seed, work)
        runner = run_traced if args.trace else run_untraced
        try:
            values, extra = runner(bench, args.seconds)
        except wl.SetupError as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "problems": bench.problems[:20],
        **extra,
        "all_metrics": values,
    }
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
