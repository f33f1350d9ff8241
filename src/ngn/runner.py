"""SGD execution: sampling, traces, averaged iterates, seed aggregation, CSV output."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .objectives import FiniteSumObjective, as_point
from .stepsizes import StepObservation, StepsizePolicy

DIVERGENCE_THRESHOLD = 1e30

TRACE_COLUMNS = (
    "step", "batch_ids", "loss_batch", "gamma", "sigma", "grad_sq_norm",
    "loss_full", "dist_sq", "grad_full_sq",
)


class RunError(RuntimeError):
    """A policy failure during a run, annotated with the step index."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"step {step}: {cause}")
        self.step = step
        self.cause = cause


@dataclass(frozen=True)
class SamplerSpec:
    mode: str = "with_replacement_uniform"
    batch_size: int = 1

    MODES = ("with_replacement_uniform", "epoch_shuffle", "full_batch")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"unknown sampler mode {self.mode!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class RunTrace:
    steps: int
    x0: np.ndarray
    x_final: np.ndarray
    # (steps, batch) sampled component indices; under full_batch a single
    # row, arange(N), that every step uses
    batch_ids: np.ndarray
    loss_batch: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    grad_sq: np.ndarray
    stationary: np.ndarray
    metric_steps: np.ndarray
    loss_full: np.ndarray
    dist_sq: np.ndarray
    grad_full_sq: np.ndarray
    x_mean: np.ndarray
    x_mean_weighted: Optional[np.ndarray]
    diverged: bool = False
    diverged_step: Optional[int] = None
    iterates: Optional[np.ndarray] = None
    seed: int = 0


def _draw_indices(mode: str, n: int, batch: int, steps: int, rng) -> np.ndarray:
    if mode == "full_batch":
        return np.arange(n)[None, :]
    if mode == "with_replacement_uniform":
        return rng.integers(0, n, size=(steps, batch))
    # epoch_shuffle: concatenated permutations, chopped into batches
    need = steps * batch
    epochs = -(-need // n)
    order = np.concatenate([rng.permutation(n) for _ in range(epochs)])
    return order[:need].reshape(steps, batch)


def check_run(obj: FiniteSumObjective, policy: StepsizePolicy, steps: int,
              sampler: SamplerSpec) -> None:
    """Raise ValueError when this objective, policy and sampler cannot run."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if sampler.mode == "full_batch" and sampler.batch_size not in (1, obj.n):
        raise ValueError("full_batch implies batch_size = N")
    if sampler.batch_size > obj.n:
        raise ValueError(f"batch_size {sampler.batch_size} exceeds the component count {obj.n}")
    if policy.requires_full_batch and sampler.mode != "full_batch":
        raise ValueError(f"{type(policy).__name__} requires sampler = full_batch")


def run_sgd(
    obj: FiniteSumObjective,
    policy: StepsizePolicy,
    steps: int,
    *,
    seed: int = 0,
    sampler: Optional[SamplerSpec] = None,
    x0: Optional[np.ndarray] = None,
    cadence: int = 0,
    store_iterates: bool = False,
) -> RunTrace:
    """One seed of `run_seeds`."""
    return run_seeds(obj, policy, steps, seeds=(seed,), sampler=sampler, x0=x0,
                     cadence=cadence, store_iterates=store_iterates)[0]


def run_seeds(
    obj: FiniteSumObjective,
    policy: StepsizePolicy,
    steps: int,
    *,
    seeds: Sequence[int] = (0,),
    sampler: Optional[SamplerSpec] = None,
    x0: Optional[np.ndarray] = None,
    cadence: int = 0,
    store_iterates: bool = False,
) -> list[RunTrace]:
    """Run x^{k+1} = x^k - gamma_k * grad_batch(x^k) for every seed, in lockstep.

    The S seeds' iterates form one (S, d) array that each step advances
    together. Each seed draws its start point and component indices from
    its own streams, default_rng([seed, 0]) and default_rng([seed, 1]), so
    its trace is the same whichever seeds run beside it. Metric cadence
    c > 0 records full objective value, squared distance to x* (when known)
    and squared full gradient norm at every c-th iterate plus the final one.
    A batch loss or squared batch gradient norm that is not finite or is
    above 1e30, or a non-finite coordinate, halts that seed with the
    diverged flag set: its row freezes and the other seeds go on.
    """
    sampler = sampler or SamplerSpec()
    check_run(obj, policy, steps, sampler)
    seeds = [int(s) for s in seeds]
    n_seeds, dim = len(seeds), obj.dim
    start = None if x0 is None else as_point(x0, dim)
    X = np.empty((n_seeds, dim))
    tables = []
    for r, seed in enumerate(seeds):
        X[r] = start if start is not None else np.random.default_rng([seed, 0]).standard_normal(dim)
        tables.append(_draw_indices(sampler.mode, obj.n, sampler.batch_size, steps,
                                    np.random.default_rng([seed, 1])))
    tables = np.stack(tables)  # (S, steps, batch), or (S, 1, N) under full_batch
    x_start = X.copy()
    policy.reset()

    full_batch = sampler.mode == "full_batch"
    n_metrics = len(range(0, steps, cadence)) + 1 if cadence > 0 else 0
    loss_batch = np.full((n_seeds, steps), np.nan)
    gamma_arr = np.full((n_seeds, steps), np.nan)
    sigma_arr = np.full((n_seeds, steps), np.nan)
    grad_sq_arr = np.full((n_seeds, steps), np.nan)
    stationary = np.zeros((n_seeds, steps), dtype=bool)
    loss_full = np.full((n_seeds, n_metrics), np.nan)
    dist_sq = np.full((n_seeds, n_metrics), np.nan)
    grad_full_sq = np.full((n_seeds, n_metrics), np.nan)
    iterates = np.empty((n_seeds, steps + 1, dim)) if store_iterates else None

    x_mean = np.zeros((n_seeds, dim))
    x_mean_w = np.zeros((n_seeds, dim))
    weight_total = 0.0
    have_weights = True
    kept_weights = np.ones(n_seeds, dtype=bool)  # have_weights as each row stopped
    diverged_step = np.full(n_seeds, -1)

    # The rows still running: `rows` numbers them and `live` indexes them (a
    # full slice while none has stopped). Their state x, xm, xw is kept
    # compact and written back to X, x_mean, x_mean_w when a row stops.
    # Policies see all S rows, zeros for a stopped one, so that per-seed
    # policy state stays aligned.
    live: slice | np.ndarray = slice(None)
    rows = np.arange(n_seeds)
    x, xm, xw = X, x_mean, x_mean_w

    # hoist hot-loop lookups
    eval_many = obj.eval_many
    full_many = obj.full_many
    x_star = obj.x_star
    f_i_star = obj.f_i_star
    policy_stepsize = policy.stepsize
    policy_sigma_at = policy.sigma_at
    needs_comp_min = policy.requires_component_min and f_i_star is not None
    vecdot = np.vecdot
    total = np.add.reduce

    def stop(bad: np.ndarray, k: int) -> None:
        """Freeze the rows flagged in `bad` as diverged at step k."""
        nonlocal rows, live, x, xm, xw
        out = rows[bad]
        X[out], x_mean[out], x_mean_w[out] = x[bad], xm[bad], xw[bad]
        diverged_step[out] = k
        kept_weights[out] = have_weights
        keep = ~bad
        rows, x, xm, xw = rows[keep], x[keep], xm[keep], xw[keep]
        live = rows

    def record_metrics(j: int) -> None:
        fv, fg = full_many(x)
        loss_full[live, j] = fv
        grad_full_sq[live, j] = vecdot(fg, fg)
        if x_star is not None:
            diff = x - x_star
            dist_sq[live, j] = vecdot(diff, diff)

    def probe(gamma: np.ndarray) -> np.ndarray:
        """Batch loss of every row at x - gamma * grad; stopped rows read 0."""
        point = x - gamma[live, None] * grad
        trial = (full_many(point) if full_batch else eval_many(idx[live], point))[0]
        if len(rows) == n_seeds:
            return trial
        out = np.zeros(n_seeds)
        out[rows] = trial
        return out

    # One observation, refreshed in place each step: the runner's losses are
    # clamped at zero and its squared norms are sums of squares, so the
    # constructor's validation is not repeated.
    obs = StepObservation(k=0, loss=np.zeros(n_seeds), grad_sq_norm=np.zeros(n_seeds),
                          probe=probe)

    # a diverging row overflows on its way out; it is flagged, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            if iterates is not None:
                iterates[live, k] = x
            if cadence > 0 and k % cadence == 0:
                record_metrics(k // cadence)

            idx = tables[:, 0 if full_batch else k]
            loss, grad = full_many(x) if full_batch else eval_many(idx[live], x)
            gsq = vecdot(grad, grad)
            loss_batch[live, k] = loss
            grad_sq_arr[live, k] = gsq

            # the sum is a cheap first test: it is NaN when any entry is
            if not total(np.abs(loss)) + total(gsq) <= DIVERGENCE_THRESHOLD:
                bad = ~((np.abs(loss) <= DIVERGENCE_THRESHOLD) & (gsq <= DIVERGENCE_THRESHOLD))
                if bad.any():
                    stop(bad, k)
                    if not len(rows):
                        break
                    loss, grad, gsq = loss[~bad], grad[~bad], gsq[~bad]

            obs.k = k
            if len(rows) == n_seeds:
                obs.loss = np.where(loss > 0.0, loss, 0.0)
                obs.grad_sq_norm = gsq
            else:
                obs.loss = np.zeros(n_seeds)
                obs.grad_sq_norm = np.zeros(n_seeds)
                obs.loss[rows] = np.where(loss > 0.0, loss, 0.0)
                obs.grad_sq_norm[rows] = gsq
            if needs_comp_min:
                obs.component_min = f_i_star[idx].mean(axis=1)
            try:
                gamma = policy_stepsize(obs)
            except Exception as exc:  # noqa: BLE001 - annotate with step index
                raise RunError(k, exc) from exc
            if np.shape(gamma) != (n_seeds,):
                gamma = np.full(n_seeds, gamma, dtype=float)
            gamma = gamma[live]

            sigma_k = policy_sigma_at(k)
            sigma_arr[live, k] = sigma_k

            # running averages over x^0 .. x^{K-1}, before the update
            xm += (x - xm) / (k + 1)
            if have_weights and math.isfinite(sigma_k):
                weight_total += sigma_k
                xw += (sigma_k / weight_total) * (x - xw)
            else:
                have_weights = False

            if math.isnan(total(gamma)):  # NaN marks a stationary row: no step
                still = np.isnan(gamma)
                stationary[live, k] = still
                gamma = np.where(still, 0.0, gamma)
                x_new = x - gamma[:, None] * grad
                x_new[still] = x[still]
            else:
                x_new = x - gamma[:, None] * grad
            gamma_arr[live, k] = gamma
            x = x_new
            # a non-finite coordinate makes the row sum non-finite (inf-inf is nan)
            if not math.isfinite(total(x, axis=None)):
                bad = ~np.isfinite(x.sum(axis=1))
                if bad.any():
                    stop(bad, k)
                    if not len(rows):
                        break

    X[rows], x_mean[rows], x_mean_w[rows] = x, xm, xw
    kept_weights[rows] = have_weights
    if iterates is not None:
        iterates[live, steps] = x
    if cadence > 0 and len(rows):
        record_metrics(n_metrics - 1)

    metric_steps = np.array([*range(0, steps, cadence), steps] if cadence > 0 else [], dtype=int)
    traces = []
    for r, seed in enumerate(seeds):
        diverged = bool(diverged_step[r] >= 0)
        n_recorded = int(diverged_step[r]) // cadence + 1 if diverged and cadence > 0 else n_metrics
        traces.append(RunTrace(
            steps=steps,
            x0=x_start[r],
            x_final=X[r],
            batch_ids=tables[r],
            loss_batch=loss_batch[r],
            gamma=gamma_arr[r],
            sigma=sigma_arr[r],
            grad_sq=grad_sq_arr[r],
            stationary=stationary[r],
            metric_steps=metric_steps[:n_recorded],
            loss_full=loss_full[r, :n_recorded],
            dist_sq=dist_sq[r, :n_recorded],
            grad_full_sq=grad_full_sq[r, :n_recorded],
            x_mean=x_mean[r],
            x_mean_weighted=x_mean_w[r] if kept_weights[r] else None,
            diverged=diverged,
            diverged_step=int(diverged_step[r]) if diverged else None,
            iterates=iterates[r] if iterates is not None and not diverged else None,
            seed=seed,
        ))
    return traces


def averaged_iterate_uniform(trace: RunTrace) -> np.ndarray:
    """Arithmetic mean of x^0 .. x^{K-1} (maintained online during the run)."""
    if trace.diverged:
        raise ValueError("diverged run has no valid averaged iterate")
    return trace.x_mean


def averaged_iterate_weighted(trace: RunTrace) -> np.ndarray:
    """sigma_k-weighted average sum_k p_k x^k with p_k = sigma_k / sum sigma."""
    if trace.diverged:
        raise ValueError("diverged run has no valid averaged iterate")
    if trace.x_mean_weighted is None:
        raise ValueError("trace has no recorded sigma_k; weighted average undefined")
    return trace.x_mean_weighted


@dataclass(frozen=True)
class Aggregate:
    mean: float
    std: float
    ci_half: float


def aggregate_metric(values: Sequence[float]) -> Aggregate:
    """Mean, sample std (ddof=1 for >= 2 seeds), and 2*std/sqrt(S) half-width."""
    arr = np.asarray(values, dtype=float)
    mean = float(np.mean(arr))
    std = float(np.std(arr, ddof=1)) if arr.size >= 2 else 0.0
    return Aggregate(mean=mean, std=std, ci_half=2.0 * std / math.sqrt(arr.size))


CSV_BLOCK_ROWS = 4096  # rows formatted and written per join


def _cells(values: np.ndarray) -> list[str]:
    """Shortest round-trip text of each value; empty where it is not finite."""
    # tolist() first: repr of a numpy scalar is "np.float64(...)" under numpy >= 2
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[i] = ""
    return cells


def trace_to_csv(trace: RunTrace, path) -> None:
    """Write the per-step trace; off-cadence and non-finite cells are empty.

    A diverged trace ends at the step where it diverged. Cells are formatted
    a column at a time, CSV_BLOCK_ROWS rows at once, so that a long trace
    never holds all its text.
    """
    n_rows = trace.diverged_step + 1 if trace.diverged else trace.steps
    ids = trace.batch_ids
    metric_steps = np.asarray(trace.metric_steps)
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for a in range(0, n_rows, CSV_BLOCK_ROWS):
            b = min(a + CSV_BLOCK_ROWS, n_rows)
            if len(ids) == 1:  # full_batch: one row that every step uses
                id_cells = [";".join(map(str, ids[0].tolist()))] * (b - a)
            else:
                id_cells = list(map(";".join, zip(*(map(str, col)
                                                    for col in ids[a:b].T.tolist()))))
            columns = [list(map(str, range(a, b))), id_cells]
            columns += [_cells(values[a:b]) for values in
                        (trace.loss_batch, trace.gamma, trace.sigma, trace.grad_sq)]
            lo, hi = np.searchsorted(metric_steps, (a, b))
            at = (metric_steps[lo:hi] - a).tolist()
            for values in (trace.loss_full, trace.dist_sq, trace.grad_full_sq):
                spread = [""] * (b - a)
                for row, cell in zip(at, _cells(values[lo:hi])):
                    spread[row] = cell
                columns.append(spread)
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
