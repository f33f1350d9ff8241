"""SGD execution: sampling, traces, averaged iterates, seed aggregation, CSV output."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .objectives import FiniteSumObjective, _block_rows, as_point
from .stepsizes import StepObservation, StepsizePolicy

DIVERGENCE_THRESHOLD = 1e30

SAMPLERS = ("with_replacement_uniform", "epoch_shuffle", "full_batch")

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


def check_run(obj: FiniteSumObjective, policy: StepsizePolicy, steps: int, *,
              seeds: Sequence[int] = (0,), sampler: str = "with_replacement_uniform",
              batch_size: int = 1, x0: Optional[np.ndarray] = None) -> None:
    """Raise ValueError unless this objective and policy can run with these parameters."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not seeds:
        raise ValueError("at least one seed is required")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must be distinct, got {', '.join(map(str, seeds))}")
    if min(seeds) < 0:
        raise ValueError(f"seeds must be >= 0, got {min(seeds)}")
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; choose from {', '.join(SAMPLERS)}")
    if not 1 <= batch_size <= obj.n:
        raise ValueError(f"batch_size must be between 1 and the component count {obj.n}, "
                         f"got {batch_size}")
    if sampler == "full_batch" and batch_size not in (1, obj.n):
        raise ValueError("full_batch implies batch_size = N")
    if policy.requires_full_batch and sampler != "full_batch":
        raise ValueError(f"{type(policy).__name__} requires sampler = full_batch")
    if x0 is not None:
        try:
            as_point(x0, obj.dim)
        except ValueError as exc:
            raise ValueError(f"x0: {exc}") from None


def run_sgd(
    obj: FiniteSumObjective,
    policy: StepsizePolicy,
    steps: int,
    *,
    seed: int = 0,
    sampler: str = "with_replacement_uniform",
    batch_size: int = 1,
    x0: Optional[np.ndarray] = None,
    cadence: int = 0,
    store_iterates: bool = False,
) -> RunTrace:
    """One seed of `run_seeds`."""
    return run_seeds(obj, policy, steps, seeds=(seed,), sampler=sampler, batch_size=batch_size,
                     x0=x0, cadence=cadence, store_iterates=store_iterates)[0]


def run_seeds(
    obj: FiniteSumObjective,
    policy: StepsizePolicy,
    steps: int,
    *,
    seeds: Sequence[int] = (0,),
    sampler: str = "with_replacement_uniform",
    batch_size: int = 1,
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
    They are evaluated after their steps, in blocks of at most
    max(1, ROW_BLOCK_ENTRIES // (S * n * d)) metric points: one `full_many`
    call per block, over the S rows of each of its points.
    A batch loss or squared batch gradient norm that is not finite or is
    above 1e30, or a non-finite coordinate, halts that seed with the
    diverged flag set: its row freezes and the other seeds go on.
    """
    seeds = [int(s) for s in seeds]
    check_run(obj, policy, steps, seeds=seeds, sampler=sampler, batch_size=batch_size, x0=x0)
    n_seeds, dim = len(seeds), obj.dim
    start = None if x0 is None else as_point(x0, dim)
    X = np.empty((n_seeds, dim))
    tables = []
    for r, seed in enumerate(seeds):
        X[r] = start if start is not None else np.random.default_rng([seed, 0]).standard_normal(dim)
        tables.append(_draw_indices(sampler, obj.n, batch_size, steps,
                                    np.random.default_rng([seed, 1])))
    tables = np.stack(tables)  # (S, steps, batch), or (S, 1, N) under full_batch
    x_start = X.copy()
    policy.reset()

    full_batch = sampler == "full_batch"
    n_metrics = len(range(0, steps, cadence)) + 1 if cadence > 0 else 0
    loss_batch = np.full((n_seeds, steps), np.nan)
    gamma_arr = np.full((n_seeds, steps), np.nan)
    grad_sq_arr = np.full((n_seeds, steps), np.nan)
    stationary = np.zeros((n_seeds, steps), dtype=bool)
    loss_full = np.full((n_seeds, n_metrics), np.nan)
    dist_sq = np.full((n_seeds, n_metrics), np.nan)
    grad_full_sq = np.full((n_seeds, n_metrics), np.nan)
    iterates = np.empty((n_seeds, steps + 1, dim)) if store_iterates else None
    diverged_step = np.full(n_seeds, -1)
    # sigma_k is the same for every seed: one read-only row that the traces
    # share; a stopped row's copy reads NaN from sigma_end[r] on
    sigma = policy.sigma_schedule(steps).view()
    sigma.flags.writeable = False
    sigma_end = np.full(n_seeds, steps)

    # The rows still running: `rows` numbers them and `live` indexes them (a
    # full slice while none has stopped). Their iterates x are kept compact
    # and written back to X when a row stops. Policies see all S rows, zeros
    # for a stopped one, so that per-seed policy state stays aligned.
    live: slice | np.ndarray = slice(None)
    rows = np.arange(n_seeds)
    x = X

    # hoist hot-loop lookups
    evaluate = obj.batch_evaluator(n_seeds, batch_size)
    full_many = obj.full_many
    x_star = obj.x_star
    policy_stepsize = policy.stepsize
    component_min = None
    if policy.requires_component_min and obj.f_i_star is not None:
        component_min = obj.f_i_star[tables].mean(axis=-1)  # (S, steps), or (S, 1)
    vecdot = np.vecdot
    total = np.add.reduce
    zero = np.array(0.0)  # 0-d, as in stepsizes._ngn_formula
    isfinite = math.isfinite

    def stop(bad: np.ndarray, k: int, sigma_from: int) -> None:
        """Freeze the rows flagged in `bad` as diverged at step k."""
        nonlocal rows, live, x
        X[rows[bad]] = x[bad]
        diverged_step[rows[bad]] = k
        sigma_end[rows[bad]] = sigma_from
        rows, x = rows[~bad], x[~bad]
        live = rows

    # Metric points wait in `pending`, a slot of S iterates each, until a
    # full buffer is evaluated at once. Sized by n * d, a flush stays within
    # one full_many row block. A stopped row's later slots keep zeros or its
    # earlier points; their values lie past its n_recorded and are cut off.
    pending = np.zeros((n_seeds, min(_block_rows(n_seeds * obj.n * dim), n_metrics), dim))
    filled = first = 0  # slots in use; metric index of slot 0

    def flush() -> None:
        nonlocal filled, first
        points = pending[:, :filled].reshape(-1, dim)
        fv, fg = full_many(points)
        end = first + filled
        loss_full[:, first:end] = fv.reshape(n_seeds, filled)
        grad_full_sq[:, first:end] = vecdot(fg, fg).reshape(n_seeds, filled)
        if x_star is not None:
            diff = points - x_star
            dist_sq[:, first:end] = vecdot(diff, diff).reshape(n_seeds, filled)
        filled, first = 0, end

    def record_metrics() -> None:
        nonlocal filled
        pending[live, filled] = x
        filled += 1
        if filled == pending.shape[1]:
            flush()

    def probe(gamma: np.ndarray) -> np.ndarray:
        """Batch loss of every row at x - gamma * grad; stopped rows read 0."""
        point = x - gamma[live, None] * grad
        trial = (full_many(point) if full_batch else evaluate(idx, point))[0]
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
                record_metrics()

            if full_batch:
                loss, grad = full_many(x)
            else:
                idx = tables[live, k]
                loss, grad = evaluate(idx, x)
            gsq = vecdot(grad, grad)
            loss_batch[live, k] = loss
            grad_sq_arr[live, k] = gsq

            # the sum is a cheap first test: it is NaN when any entry is
            if not total(np.abs(loss)) + total(gsq) <= DIVERGENCE_THRESHOLD:
                bad = ~((np.abs(loss) <= DIVERGENCE_THRESHOLD) & (gsq <= DIVERGENCE_THRESHOLD))
                if bad.any():
                    stop(bad, k, k)
                    if not len(rows):
                        break
                    loss, grad, gsq = loss[~bad], grad[~bad], gsq[~bad]
                    if not full_batch:
                        idx = idx[~bad]

            obs.k = k
            if len(rows) == n_seeds:
                # a NaN loss has stopped its row, so this clamps -0.0 and
                # negatives to +0.0 and nothing else
                obs.loss = np.maximum(loss, zero)
                obs.grad_sq_norm = gsq
            else:
                obs.loss = np.zeros(n_seeds)
                obs.grad_sq_norm = np.zeros(n_seeds)
                obs.loss[rows] = np.maximum(loss, zero)
                obs.grad_sq_norm[rows] = gsq
            if component_min is not None:
                obs.component_min = component_min[:, 0 if full_batch else k]
            try:
                gamma = policy_stepsize(obs)
            except Exception as exc:  # noqa: BLE001 - annotate with step index
                raise RunError(k, exc) from exc
            if len(rows) < n_seeds:
                gamma = gamma[live]

            x_new = x - gamma[:, None] * grad
            # one sum tests every row: a NaN gamma (a stationary row) or a
            # non-finite coordinate makes it non-finite (inf-inf is nan)
            if isfinite(total(x_new, axis=None)):
                gamma_arr[live, k] = gamma
                x = x_new
                continue
            still = np.isnan(gamma)
            if still.any():  # a stationary row takes no step
                stationary[live, k] = still
                gamma = np.where(still, 0.0, gamma)
                x_new[still] = x[still]
            gamma_arr[live, k] = gamma
            x = x_new
            bad = ~np.isfinite(x.sum(axis=1))
            if bad.any():
                stop(bad, k, k + 1)
                if not len(rows):
                    break

        if cadence > 0 and len(rows):
            record_metrics()
        if filled:  # also after every row has stopped
            flush()

    X[rows] = x
    if iterates is not None:
        iterates[live, steps] = x

    metric_steps = np.array([*range(0, steps, cadence), steps] if cadence > 0 else [], dtype=int)
    traces = []
    for r, seed in enumerate(seeds):
        diverged = bool(diverged_step[r] >= 0)
        n_recorded = int(diverged_step[r]) // cadence + 1 if diverged and cadence > 0 else n_metrics
        sigma_r = sigma
        if sigma_end[r] < steps:
            sigma_r = sigma.copy()
            sigma_r[sigma_end[r]:] = np.nan
        traces.append(RunTrace(
            steps=steps,
            x0=x_start[r],
            x_final=X[r],
            batch_ids=tables[r],
            loss_batch=loss_batch[r],
            gamma=gamma_arr[r],
            sigma=sigma_r,
            grad_sq=grad_sq_arr[r],
            stationary=stationary[r],
            metric_steps=metric_steps[:n_recorded],
            loss_full=loss_full[r, :n_recorded],
            dist_sq=dist_sq[r, :n_recorded],
            grad_full_sq=grad_full_sq[r, :n_recorded],
            diverged=diverged,
            diverged_step=int(diverged_step[r]) if diverged else None,
            iterates=iterates[r] if iterates is not None and not diverged else None,
            seed=seed,
        ))
    return traces


def _iterates_to_average(trace: RunTrace) -> np.ndarray:
    """x^0 .. x^{K-1}; ValueError for a diverged run or one without iterates."""
    if trace.diverged:
        raise ValueError("diverged run has no valid averaged iterate")
    if trace.iterates is None:
        raise ValueError("averaged iterates need a run with store_iterates=True")
    return trace.iterates[:trace.steps]


def averaged_iterate_uniform(trace: RunTrace) -> np.ndarray:
    """Arithmetic mean of x^0 .. x^{K-1}."""
    return _iterates_to_average(trace).mean(axis=0)


def averaged_iterate_weighted(trace: RunTrace) -> np.ndarray:
    """sigma_k-weighted average sum_k p_k x^k with p_k = sigma_k / sum sigma."""
    points, sigma = _iterates_to_average(trace), trace.sigma
    if not np.all(np.isfinite(sigma)):
        raise ValueError("trace has a non-finite sigma_k; weighted average undefined")
    return (sigma[:, None] * points).sum(axis=0) / sigma.sum()


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
