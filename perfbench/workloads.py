"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop: one caller in one process starts an
operation and waits for its result before starting the next. Inputs are
derived from the workload seed only.

- mc_verify: the three Monte Carlo theorem checks of `ngn.verify`
  (convex, nonconvex, annealed rate) with 20 seeds each, in process.
- logistic_run: `ngn run --jobs 1` on a 2000 x 20, 5-class blob dataset,
  minibatch 16, epoch shuffling, metrics every 10 steps, 3 seeds.
- trace_pool: `ngn run --jobs 2` on two_quadratics with full per-step
  traces (cadence 1) for 8 seeds, so the process pool ships large traces
  and the parent writes every CSV row.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each operation is kept short (0.3-0.4 s on a 2-vCPU Xeon VM) so that one
# run holds dozens of repetitions; run.py reports the fastest of them.
# mc_verify: steps per seed of the convex and nonconvex checks; the annealed
# check uses K/100, K/10 and K, the same ratios as acceptance criterion 08
MC_STEPS = 500
MC_SEEDS = 20
MC_PILOT_STEPS = 2000  # fixed pilot run inside check_nonconvex_rate

LOGISTIC_STEPS = 300
LOGISTIC_SEEDS = 3
POOL_STEPS = 2000
POOL_SEEDS = 8
POOL_JOBS = 2
SIGMA = 1.0

TRACE_NUMERIC = ("step", "loss_batch", "gamma", "sigma", "grad_sq_norm",
                 "loss_full", "dist_sq", "grad_full_sq")


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def import_ngn():
    """Import ngn from this checkout's `src`, never from an installed copy."""
    if not (SRC / "ngn" / "__init__.py").is_file():
        raise SetupError(f"no ngn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ngn

    if Path(ngn.__file__).resolve().parent != SRC / "ngn":
        raise SetupError(f"imported ngn from {ngn.__file__}, not from {SRC}")
    return ngn


# -- inputs -----------------------------------------------------------------

def mc_inputs(seed: int) -> dict:
    """Start point of the convex/annealed checks and the nonconvex fixture."""
    import numpy as np

    x0 = float(np.random.default_rng([seed, 7]).uniform(1.5, 2.5))
    return {"x0": x0, "fixture_seed": seed}


@dataclass(frozen=True)
class CliRun:
    """An `ngn run` config and what its outputs must contain."""

    text: str
    steps: int
    seeds: tuple[int, ...]
    cadence: int
    jobs: int


def cli_run(workload: str, seed: int) -> CliRun:
    if workload == "logistic_run":
        problem = f"logistic_blobs(n=2000, d=20, classes=5, seed={seed})"
        sampler = "sampler = epoch_shuffle\nbatch_size = 16\n"
        steps, n_seeds, cadence, jobs = LOGISTIC_STEPS, LOGISTIC_SEEDS, 10, 1
    elif workload == "trace_pool":
        problem = "two_quadratics()"
        sampler = ""
        steps, n_seeds, cadence, jobs = POOL_STEPS, POOL_SEEDS, 1, POOL_JOBS
    else:
        raise ValueError(f"{workload} is not a CLI workload")
    seeds = tuple(seed + i for i in range(n_seeds))
    text = (f"problem = {problem}\n"
            f"policy = ngn(sigma={SIGMA})\n"
            f"steps = {steps}\n"
            f"seeds = {','.join(map(str, seeds))}\n"
            f"{sampler}"
            f"cadence = {cadence}\n")
    return CliRun(text, steps, seeds, cadence, jobs)


def planned_steps(workload: str) -> int:
    """SGD steps one operation completes when no run diverges."""
    if workload == "mc_verify":
        annealed = MC_STEPS // 100 + MC_STEPS // 10 + MC_STEPS
        return MC_SEEDS * (2 * MC_STEPS + annealed) + MC_PILOT_STEPS
    run = cli_run(workload, 0)
    return run.steps * len(run.seeds)


def setup(workload: str, seed: int, config_path: Path) -> None:
    """Everything a workload does before its first SGD step."""
    ngn = import_ngn()
    if workload == "mc_verify":
        inputs = mc_inputs(seed)
        ngn.context_from_objective(ngn.make_two_quadratics())
        ngn.make_nonconvex_sum(8, inputs["fixture_seed"])
        return
    from ngn import cli

    cfg = cli.parse_config(config_path)
    cli.build_problem(cfg.problem)
    cli.build_policy(cfg.policy)


# -- operations -------------------------------------------------------------

@dataclass
class Outcome:
    """Operations of one repetition: whether each succeeded, and its output hash."""

    ok: list[bool]
    digests: list[str]
    problems: list[str] = field(default_factory=list)


def mc_verify_once(inputs: dict) -> tuple[Outcome, list]:
    """One operation per check report; a report fails if it did not pass."""
    from ngn import verify

    x0 = inputs["x0"]
    reports = [
        verify.check_convex_rate(steps=MC_STEPS, n_seeds=MC_SEEDS, x0=x0),
        verify.check_nonconvex_rate(fixture_seed=inputs["fixture_seed"],
                                    steps=MC_STEPS, n_seeds=MC_SEEDS),
        *verify.check_annealed_rate(
            steps_grid=(MC_STEPS // 100, MC_STEPS // 10, MC_STEPS),
            n_seeds=MC_SEEDS, x0=x0),
    ]
    rows = [r.csv_row() for r in reports]
    ok = [r.passed and math.isfinite(r.measured) for r in reports]
    digests = [hashlib.sha256(row.encode()).hexdigest() for row in rows]
    problems = [f"check failed: {r.name}" for r, good in zip(reports, ok) if not good]
    return Outcome(ok, digests, problems), rows


def cli_once(config_path: Path, out_dir: Path, jobs: int) -> Outcome:
    """One `ngn run`; it fails on a RunError, a nonzero exit or a divergence."""
    from ngn import RunError, cli

    argv = ["run", "--config", str(config_path), "--out", str(out_dir),
            "--jobs", str(jobs)]
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except RunError as exc:
        return Outcome([False], [""], [f"RunError: {exc}"])
    problems = []
    if code != 0:
        problems.append(f"ngn run exited with {code}")
    if "diverged" in captured.getvalue():
        problems.append("a seed diverged")
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return Outcome([not problems], [digest.hexdigest()], problems)


# -- output checks ----------------------------------------------------------

def _lenient_float(cell: str) -> float:
    """Value of a cell, also when it is written as `np.float64(...)`."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


@dataclass
class CellCount:
    cells: int = 0
    rejected: int = 0

    def add(self, cell: str) -> None:
        if cell == "":
            return
        self.cells += 1
        try:
            float(cell)
        except ValueError:
            self.rejected += 1


def check_verify_rows(rows: list[str], cells: CellCount) -> None:
    """Count the numeric cells of verify report rows, read as CSV by position."""
    from ngn.verify import REPORT_HEADER

    header = REPORT_HEADER.split(",")
    cols = [header.index(c) for c in ("measured", "bound", "tolerance", "seed")]
    for row in csv.reader(rows):
        for c in cols:
            cells.add(row[c])


def _check_trace_row(k: int, row: list[str], gamma_col: int, loss_col: int,
                     full_col: int, cadence: int) -> str:
    """What is wrong with trace row `k`, or "" when nothing is."""
    try:
        if int(row[0]) != k:
            return f"row {k} has step {row[0]}"
        gamma = _lenient_float(row[gamma_col])
        if not (0.0 < gamma <= SIGMA and math.isfinite(_lenient_float(row[loss_col]))):
            return f"step {k} has gamma {gamma}"
    except ValueError as exc:
        return f"step {k} is unreadable: {exc}"
    if (k % cadence == 0) != (row[full_col] != ""):
        return f"step {k} metric cells off the cadence grid"
    return ""


def check_cli_outputs(out_dir: Path, run: CliRun, cells: CellCount) -> list[str]:
    """Validate the trace and aggregate files of one `ngn run`.

    Every numeric cell goes through `float()`; rejected cells are counted,
    never rewritten. Values are then read leniently and checked against
    what the run must produce: one row per step, NGN stepsizes in
    (0, sigma], finite losses, metrics on the cadence grid.
    """
    problems = []
    steps, cadence = run.steps, run.cadence
    for seed in run.seeds:
        path = out_dir / f"trace_seed{seed}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cols = [header.index(c) for c in TRACE_NUMERIC]
        gamma_col, loss_col, full_col = (header.index("gamma"), header.index("loss_batch"),
                                         header.index("loss_full"))
        if len(lines) - 1 != steps:
            problems.append(f"{path.name}: {len(lines) - 1} rows, expected {steps}")
        for k, line in enumerate(lines[1:]):
            row = line.split(",")
            if len(row) != len(header):
                problems.append(f"{path.name}: row {k} has {len(row)} cells, expected {len(header)}")
                break
            for c in cols:
                cells.add(row[c])
            problem = _check_trace_row(k, row, gamma_col, loss_col, full_col, cadence)
            if problem:
                problems.append(f"{path.name}: {problem}")
                break
    agg = out_dir / "aggregate.csv"
    if not agg.is_file():
        return problems + ["missing aggregate.csv"]
    lines = agg.read_text().splitlines()
    if lines[0] != "metric,mean,std,ci_half" or len(lines) < 2:
        problems.append("aggregate.csv has an unexpected layout")
    for line in lines[1:]:
        parts = line.split(",")
        for cell in parts[1:]:
            cells.add(cell)
        try:
            finite = math.isfinite(_lenient_float(parts[1]))
        except (ValueError, IndexError):
            finite = False
        if not finite:
            problems.append(f"aggregate {parts[0]} is not a finite number")
    return problems
