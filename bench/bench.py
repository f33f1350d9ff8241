"""Per-step cost of the runner, and of a wide sweep, measured in process.

Usage (from the repository root):

    python3 bench/bench.py --out BENCH.json [--steps 3000] [--sweep-steps 2000] [--reps 7]

It drives `ngn.runner.Run` on the package in `src/` next to this
directory, so a copy of this file in another checkout measures that
checkout. Cases:

- `sweep`: a `constant` gamma grid of 50 values x 20 seeds on
  two_quadratics from x0 = 2, 1000 rows that read only their final values,
  as `ngn sweep` does; about half of them diverge.
- one case per problem, rows S, batch and policy: `ngn(sigma=1.0)` and
  `constant(gamma=0.1)` on two_quadratics and nonconvex_sum at batch 1 and
  on logistic_blobs(n=2000, d=20, classes=5) at batch 1 and 16, each at
  S = 1 and S = 20 seeds.

Each case reads wall seconds and microseconds per row-step, a row-step
being one step that one row took. `ngn_over_sgd` gives,
per problem, S and batch, the ratio of NGN's to constant SGD's time per
row-step, taken within each repetition. The cases run in turn, `--reps`
times, so that drift of the host's speed falls on every case alike; each
time is normalised by the reference kernel of `perfbench/reference.py`
run around it, and reads in seconds on a core of the kernel's nominal
speed. Every metric is given as the median and quartiles of its
repetitions. The JSON also records the machine, Python and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from reference import NOMINAL_S, Yardstick  # noqa: E402  (perfbench, read only)

from ngn.runner import Run, write_traces  # noqa: E402
from ngn.specs import POLICIES, PROBLEMS, build, build_spec  # noqa: E402

SWEEP_GAMMAS = np.linspace(0.08, 4.0, 50)  # above 2 the iteration diverges
SWEEP_SEEDS = 20
POLICY_SPECS = {"ngn": "ngn(sigma=1.0)", "sgd": "constant(gamma=0.1)"}
# (problem spec, batch sizes)
PROBLEM_SPECS = (
    ("two_quadratics()", (1,)),
    ("nonconvex_sum()", (1,)),
    ("logistic_blobs(n=2000, d=20, classes=5)", (1, 16)),
)
ROWS = (1, 20)


def sweep_run(steps: int) -> Run:
    obj = build_spec(PROBLEMS, "two_quadratics()")
    gamma = np.repeat(SWEEP_GAMMAS, SWEEP_SEEDS)
    return Run(obj, build(POLICIES, "constant", gamma=gamma), steps,
               seeds=list(range(SWEEP_SEEDS)) * len(SWEEP_GAMMAS), x0=np.array([2.0]),
               cadence=steps)


def cases(steps: int, sweep_steps: int) -> dict:
    """Name -> a function that builds a fresh `Run` of the case."""
    out = {"sweep": lambda: sweep_run(sweep_steps)}
    for spec, batches in PROBLEM_SPECS:
        obj = build_spec(PROBLEMS, spec)
        for batch in batches:
            for rows in ROWS:
                for name, policy in POLICY_SPECS.items():
                    out[f"{spec.split('(')[0]}/S{rows}/b{batch}/{name}"] = (
                        lambda obj=obj, policy=policy, rows=rows, batch=batch:
                        Run(obj, build_spec(POLICIES, policy), steps, seeds=range(rows),
                            batch_size=batch))
    return out


def timed(name: str, make_run) -> tuple[float, int]:
    """Wall seconds to take a fresh run of case `name` to its end, reading its final values,
    and the row-steps it ran; building the run is not timed. RuntimeError for none."""
    run = make_run()
    t0 = time.perf_counter()
    write_traces(run, [])
    seconds = time.perf_counter() - t0
    row_steps = int(np.minimum(run.lengths(), run.k).sum())
    if not row_steps:
        raise RuntimeError(f"case {name} ran no steps")
    return seconds, row_steps


def spread(values: list[float]) -> dict:
    """Median and quartiles of the repetitions' values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def measure(steps: int, sweep_steps: int, reps: int) -> dict:
    runs = cases(steps, sweep_steps)
    wall = {name: [] for name in runs}
    row_steps = {}
    yardstick = Yardstick()
    for _ in range(reps):
        for name, make_run in runs.items():
            seconds, row_steps[name] = timed(name, make_run)
            wall[name].append(yardstick.normalise(seconds))
    result = {"cases": {}, "ngn_over_sgd": {}}
    for name, times in wall.items():
        result["cases"][name] = {
            "row_steps": row_steps[name],
            "wall_s": spread(times),
            "us_per_row_step": spread([1e6 * t / row_steps[name] for t in times]),
        }
    for name in wall:
        if name.endswith("/ngn"):
            base = name.removesuffix("/ngn")
            ngn, sgd = (np.array(wall[f"{base}/{p}"]) / row_steps[f"{base}/{p}"]
                        for p in ("ngn", "sgd"))
            result["ngn_over_sgd"][base] = spread((ngn / sgd).tolist())
    result["kernel_s"] = spread(yardstick.samples)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--steps", type=int, default=3000, help="steps of each per-step case")
    parser.add_argument("--sweep-steps", type=int, default=2000, help="steps of the sweep")
    parser.add_argument("--reps", type=int, default=7, help="repetitions of every case")
    args = parser.parse_args(argv)
    if min(args.steps, args.sweep_steps, args.reps) < 1:
        parser.error("--steps, --sweep-steps and --reps must be >= 1")
    record = {
        "command": ["bench/bench.py"] + (sys.argv[1:] if argv is None else list(argv)),
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "processor": platform.processor(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "settings": {"steps": args.steps, "sweep_steps": args.sweep_steps, "reps": args.reps,
                     "sweep_rows": len(SWEEP_GAMMAS) * SWEEP_SEEDS},
        "units": {"wall_s": f"s on a core that runs the reference kernel in {NOMINAL_S} s",
                  "us_per_row_step": "us of wall_s per step of one row",
                  "kernel_s": "s, raw"},
        **measure(args.steps, args.sweep_steps, args.reps),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    sweep = record["cases"]["sweep"]["wall_s"]
    print(f"sweep: {sweep['median']:.3f} s (q1 {sweep['q1']:.3f}, q3 {sweep['q3']:.3f}); "
          f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
