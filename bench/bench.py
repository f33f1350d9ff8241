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

Before the timed repetitions, one traced pass of each case splits its
time by layer, with class-level wraps: `objectives` counts
`FiniteSumObjective.eval_many` and `full_many`, `stepsizes` the `stepsize`
of each `StepsizePolicy` subclass, `metrics` `runner.metrics`, and
`runner` `runner.write_traces`. Each layer reads its calls and self
seconds (raw), a wrapped call's time less that of the wrapped calls it
makes; the runner's self seconds are the rest of the pass, wraps
included: `Run.advance`'s bookkeeping, since no case writes a trace. A
name that is gone, or a layer that a case must call and that reads no
call, stops the script.
"""

from __future__ import annotations

import argparse
import contextlib
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

from ngn import runner  # noqa: E402
from ngn.objectives import FiniteSumObjective  # noqa: E402
from ngn.runner import Run, write_traces  # noqa: E402
from ngn.specs import POLICIES, PROBLEMS, build, build_spec  # noqa: E402
from ngn.stepsizes import StepsizePolicy  # noqa: E402

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


def layer_names() -> dict:
    """Layer -> the (owner, name) pairs whose calls it counts."""
    policies, todo = [], StepsizePolicy.__subclasses__()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if "stepsize" in vars(cls):
            policies.append(cls)
    return {
        "objectives": [(FiniteSumObjective, "eval_many"), (FiniteSumObjective, "full_many")],
        "stepsizes": [(cls, "stepsize") for cls in policies],
        "metrics": [(runner, "metrics")],
        "runner": [(runner, "write_traces")],
    }


@contextlib.contextmanager
def wrapped(names: dict, calls: dict, self_s: dict):
    """Each layer's `names` wrapped, adding each call to `calls` and its self seconds to
    `self_s` by layer; AttributeError, with nothing wrapped, for a name that is gone."""
    inner = []  # seconds in wrapped callees, one entry per open wrapped call
    targets = [(layer, owner, name, getattr(owner, name))
               for layer, pairs in names.items() for owner, name in pairs]

    def counted(layer, fn):
        def call(*args, **kwargs):
            inner.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self_s[layer] += seconds - inner.pop()
                calls[layer] += 1
                if inner:
                    inner[-1] += seconds

        return call

    try:
        for layer, owner, name, fn in targets:
            setattr(owner, name, counted(layer, fn))
        yield
    finally:
        for _, owner, name, fn in targets:
            setattr(owner, name, fn)


def traced(name: str, make_run) -> dict:
    """One pass of a fresh run of case `name` with every layer wrapped: each layer's calls,
    self seconds and share of the pass. RuntimeError when the objectives, stepsizes or
    runner layer reads no call, or the metrics layer in a run with a cadence, whose
    final values write_traces evaluates through `runner.metrics`."""
    run = make_run()
    names = layer_names()
    calls, self_s = dict.fromkeys(names, 0), dict.fromkeys(names, 0.0)
    with wrapped(names, calls, self_s):
        t0 = time.perf_counter()
        runner.write_traces(run, [])
        seconds = time.perf_counter() - t0
    self_s["runner"] = seconds - sum(self_s[layer] for layer in self_s if layer != "runner")
    must = ["objectives", "stepsizes", "runner"] + (["metrics"] if run.cadence else [])
    for layer in must:
        if not calls[layer]:
            raise RuntimeError(f"case {name}: layer {layer} made no call")
    return {"wall_s": seconds, **{layer: {"calls": calls[layer], "self_s": self_s[layer],
                                          "share": self_s[layer] / seconds}
                                  for layer in calls}}


def spread(values: list[float]) -> dict:
    """Median and quartiles of the repetitions' values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def measure(steps: int, sweep_steps: int, reps: int) -> dict:
    runs = cases(steps, sweep_steps)
    layers = {name: traced(name, make_run) for name, make_run in runs.items()}
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
            "layers": layers[name],
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
                  "layers": "one traced pass: wall_s and each layer's self_s raw, in s; "
                            "share, self_s / wall_s",
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
