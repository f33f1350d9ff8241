"""Outside-in span tracer for the ngn package.

Spans are recorded by wrapping public functions and methods of the six
modules (objectives, stepsizes, runner, theory, verify, cli). Nothing inside
the package is edited: the wrappers are installed as attributes on classes
and modules and removed again when the tracer is uninstalled.

`run_sgd` looks up `obj.batch_eval`, `policy.stepsize` and friends once, at
its start, so methods are patched on the classes before any run begins.
`verify` and `cli` import `run_sgd` by name, so those bindings are patched
as well as `runner.run_sgd`.

Each span is (name, start, end, parent). Spans are kept in flat arrays in
memory until `spans()` is called; self time is a span's duration minus the
durations of its direct children (children nest, so they never overlap).
A wrapper's own cost falls mostly outside its span, into the caller's self
time; `wrapper_cost_us` measures it per call so it can be read beside the
layer numbers.
"""

from __future__ import annotations

import functools
import pickle
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("objectives", "stepsizes", "runner", "theory", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # names the program no longer has
        # exact counts gathered by result hooks
        self.components = 0
        self.run_steps = 0
        self.run_stationary = 0
        self.run_diverged = 0
        self.run_trace_bytes = 0
        self.runs: list[tuple[str, int]] = []  # (objective name, steps) per run_sgd call
        self.csv_paths: list[Path] = []
        self.csv_traces: list[tuple[int, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Return `fn` wrapped in a span called `name`.

        `hook(args, kwargs, result)` runs after the span has closed, so the
        bookkeeping it does is not charged to the span itself.
        """
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace `owner.attr` by its traced wrapper; note it if absent."""
        original = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks -------------------------------------------------------------

    def _count_components(self, fso) -> None:
        """Count every call of every objective's component function.

        Each objective built while the tracer is installed gets its
        component callable wrapped in a counter, so evaluations are counted
        once whether they come through batch_eval, component_eval or the
        theory module.
        """
        original = fso.__dict__["__init__"]
        tracer = self

        @functools.wraps(original)
        def init(obj, n, dim, component, *args, **kwargs):
            def counted(i, x):
                tracer.components += 1
                return component(i, x)

            original(obj, n, dim, counted, *args, **kwargs)

        self._patches.append((fso, "__init__", original))
        fso.__init__ = init

    def _count_run(self, args, kwargs, trace):
        done = trace.diverged_step + 1 if trace.diverged else trace.steps
        self.run_steps += done
        self.run_stationary += int(trace.stationary.sum())
        self.run_diverged += int(trace.diverged)
        self.run_trace_bytes += sum(
            v.nbytes for v in vars(trace).values() if isinstance(v, np.ndarray))
        self.runs.append((args[0].name, done))

    def _count_csv(self, args, kwargs, result):
        trace, path = args[0], Path(args[1])
        self.csv_paths.append(path)
        self.csv_traces.append((trace.seed, trace))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from ngn import cli, objectives, runner, stepsizes, theory, verify

        fso = objectives.FiniteSumObjective
        self._count_components(fso)
        self.patch(fso, "batch_eval", "objectives.batch_eval")
        self.patch(fso, "full_eval", "objectives.full_eval")
        self.patch(fso, "full_grad_sq_many", "objectives.full_grad_sq_many")

        todo = [stepsizes.StepsizePolicy]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "stepsize" in cls.__dict__:
                self.patch(cls, "stepsize", "stepsizes.stepsize")
            if "sigma_at" in cls.__dict__:
                self.patch(cls, "sigma_at", "stepsizes.sigma_at")

        for module in (runner, verify, cli):
            self.patch(module, "run_sgd", "runner.run_sgd", self._count_run)
        self.patch(runner, "trace_to_csv", "runner.trace_to_csv", self._count_csv)
        self.patch(cli, "trace_to_csv", "runner.trace_to_csv", self._count_csv)

        factories = {
            verify: ("make_two_quadratics", "make_nonconvex_sum", "make_quadratic1d",
                     "make_blobs_dataset", "make_logistic", "make_linear_regression"),
            cli: ("make_two_quadratics", "make_nonconvex_sum", "make_quadratic1d",
                  "make_blobs_dataset", "make_logistic", "make_linear_regression",
                  "load_libsvm"),
        }
        for module, names in factories.items():
            for name in names:
                self.patch(module, name, "objectives.build")

        self.patch(theory, "context_from_objective", "theory.context")
        self.patch(theory, "estimate_delta_noise_sq", "theory.noise_estimate")
        for name in ("convex_bound", "nonconvex_bound", "annealed_bound",
                     "strongly_convex_bound"):
            self.patch(theory, name, "theory.bound")

        for name in ("check_convex_rate", "check_nonconvex_rate", "check_annealed_rate"):
            self.patch(verify, name, f"verify.{name}")

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "parse_config", "cli.parse_config")
        self.patch(cli, "build_problem", "cli.build_problem")
        self.patch(cli, "build_policy", "cli.build_policy")

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict:
        """Per span name: calls, inclusive and self seconds, and each duration."""
        # copies, so the arrays are not left exporting their buffers
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=self_time, minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i]),
                    "durations": dur[name == i]}
                for i, n in enumerate(self.names) if calls[i]}

    def pickled_trace_bytes(self) -> int:
        """Bytes of the (seed, RunTrace) pairs a process pool ships back."""
        return sum(len(pickle.dumps(pair, protocol=pickle.HIGHEST_PROTOCOL))
                   for pair in self.csv_traces)


def wrapper_cost_us(calls: int = 200_000) -> float:
    """Per-call cost of a span wrapper, measured around an empty function."""

    def empty():
        return None

    best_raw = best_traced = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            empty()
        best_raw = min(best_raw, time.perf_counter() - t0)
        traced = Tracer().wrap("empty", empty)
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        best_traced = min(best_traced, time.perf_counter() - t0)
    return (best_traced - best_raw) / calls * 1e6
