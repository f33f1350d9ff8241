"""SGD execution: sampling, traces, seed aggregation, CSV output."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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


class _Sampler:
    """One row's component indices, drawn a chunk of steps at a time from its stream.

    Draws in a row give the indices of one draw of all their steps:
    `integers` splits without a seam, and epoch_shuffle deals from one
    permutation per epoch, keeping the undealt rest for the next draw.
    """

    def __init__(self, mode: str, n: int, batch: int, rng: np.random.Generator):
        self.mode, self.n, self.batch, self.rng = mode, n, batch, rng
        self.rest = np.empty(0, dtype=np.int64)

    def draw(self, steps: int) -> np.ndarray:
        """(steps, batch) indices; under full_batch the one row arange(N) that every step uses."""
        if self.mode == "full_batch":
            return np.arange(self.n)[None, :]
        if self.mode == "with_replacement_uniform":
            return self.rng.integers(0, self.n, size=(steps, self.batch))
        need = steps * self.batch
        parts, have = [self.rest], len(self.rest)
        while have < need:
            parts.append(self.rng.permutation(self.n))
            have += self.n
        order = np.concatenate(parts)
        self.rest = order[need:]
        return order[:need].reshape(steps, self.batch)


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


def _chunk_steps(rows: int, width: int) -> int:
    """Steps per chunk of a run whose rows keep `width` entries per step."""
    return _block_rows(rows * width)


@dataclass
class Chunk:
    """Steps k0 .. k1-1 of every row of a run, each array (S, k1 - k0, ...).

    A row that is stopped reads NaN there (False in `stationary`), as its
    whole trace does, and its iterates after its stop are NaN too. With a
    metric cadence c > 0 the chunk also carries the full objective value,
    squared distance to x* (NaN when unknown) and squared full gradient
    norm at its cadence points: x^k for k0 <= k < k1 with k % c == 0 within
    some row's trace (`Run.lengths`), NaN for a row whose trace ends before
    k. The last chunk adds them at each row's last iterate in `final`, NaN
    for a row that diverged.
    """

    k0: int
    k1: int
    batch_ids: np.ndarray  # (S, k1 - k0, batch), or (S, 1, N) under full_batch
    loss_batch: np.ndarray
    gamma: np.ndarray
    grad_sq: np.ndarray
    stationary: np.ndarray
    sigma: np.ndarray  # (k1 - k0,) sigma_k, the same for every row
    metric_steps: np.ndarray  # (m,) the cadence points' steps
    loss_full: np.ndarray  # (S, m), as are dist_sq and grad_full_sq
    dist_sq: np.ndarray
    grad_full_sq: np.ndarray
    final: Optional[np.ndarray] = None  # (S, 3) the three at X[r], on the last chunk
    iterates: Optional[np.ndarray] = None  # (S, k1 - k0, d): x^k0 .. x^(k1-1)


class Run:
    """x^{k+1} = x^k - gamma_k * grad_batch(x^k) for S rows, one seed each, in lockstep.

    Each `advance` takes every running row through the next chunk, steps
    [k0, k1), and returns their per-step values and metric points as a
    `Chunk`; iterating the run takes it to its end, as do its two consumers,
    `whole_traces` and `write_traces`. What carries over from chunk to chunk
    is the run's state: the rows' iterates and which rows still run, the
    policy's per-row state, and each row's two streams, default_rng([seed,
    0]) for the start point and default_rng([seed, 1]) for the indices,
    which are drawn a chunk at a time. A chunk holds about ROW_BLOCK_ENTRIES
    entries, so memory does not grow with the step count.

    `steps` is one end step for every row, or one per row: a row that
    reaches its end before the others retires, stopped without the diverged
    flag, its last iterate kept in X for the last chunk's final metric
    point; the run ends at the largest.
    """

    def __init__(self, obj: FiniteSumObjective, policy: StepsizePolicy,
                 steps: Union[int, Sequence[int]], *, seeds: Sequence[int] = (0,),
                 sampler: str = "with_replacement_uniform", batch_size: int = 1,
                 x0: Optional[np.ndarray] = None, cadence: int = 0,
                 store_iterates: bool = False):
        seeds = [int(s) for s in seeds]
        ends = [int(e) for e in np.broadcast_to(steps, (len(seeds),))]
        check_run(obj, policy, min(ends, default=1), seeds=seeds, sampler=sampler,
                  batch_size=batch_size, x0=x0)
        n_rows, dim = len(seeds), obj.dim
        self.obj, self.policy, self.seeds, self.cadence = obj, policy, seeds, cadence
        self.ends = np.array(ends)
        self.steps = max(ends)
        self.full_batch = sampler == "full_batch"
        self.store_iterates = store_iterates
        start = None if x0 is None else as_point(x0, dim)
        self.X = np.empty((n_rows, dim))  # every row's iterate, current for stopped rows
        self._samplers = []
        for r, seed in enumerate(seeds):
            self.X[r] = (start if start is not None
                         else np.random.default_rng([seed, 0]).standard_normal(dim))
            self._samplers.append(_Sampler(sampler, obj.n, batch_size,
                                           np.random.default_rng([seed, 1])))
        self.x_start = self.X.copy()
        policy.reset()
        self.k = 0
        self.diverged_step = np.full(n_rows, -1)
        # sigma_k of row r is NaN from sigma_end[r] on
        self.sigma_end = self.ends.copy()
        # The rows still running, and their iterates, kept compact; X gets a
        # row's iterate when it stops
        self.rows = np.arange(n_rows)
        self._x = self.X
        width = dim + 4 + (0 if self.full_batch else batch_size)
        self.chunk_steps = _chunk_steps(n_rows, width)
        self._evaluate = obj.batch_evaluator(n_rows, batch_size)

    def __iter__(self):
        while self.k < self.steps:
            yield self.advance()

    def lengths(self) -> np.ndarray:
        """(S,) steps of each row's trace: through the step where it diverged, else to its end."""
        return np.where(self.diverged_step >= 0, self.diverged_step + 1, self.ends)

    def row_sigma(self, r: int, sigma: np.ndarray, k0: int = 0) -> np.ndarray:
        """Row r's copy of `sigma`, sigma_k from step k0 on: NaN from sigma_end[r] on."""
        stop = int(self.sigma_end[r]) - k0
        if stop >= len(sigma):
            return sigma
        sigma = sigma.copy()
        sigma[max(stop, 0):] = np.nan
        return sigma

    def _metrics(self, points: np.ndarray) -> np.ndarray:
        """(3, S, m) loss_full, dist_sq and grad_full_sq at (S, m, d) points.

        One full_many call over all S * m points, none when there are none:
        full_many's own row blocks bound its temporaries.
        """
        obj = self.obj
        n_rows, m, dim = points.shape
        out = np.full((3, n_rows, m), np.nan)
        if m == 0:
            return out
        flat = points.reshape(-1, dim)
        fv, fg = obj.full_many(flat)
        out[0] = fv.reshape(n_rows, m)
        if obj.x_star is not None:
            diff = flat - obj.x_star
            out[1] = np.vecdot(diff, diff).reshape(n_rows, m)
        out[2] = np.vecdot(fg, fg).reshape(n_rows, m)
        return out

    def advance(self) -> Chunk:
        """Run steps k .. k1-1 of every running row, k1 = min(k + chunk_steps, steps).

        A batch loss or squared batch gradient norm that is not finite or is
        above 1e30, or a non-finite coordinate, halts that row with the
        diverged flag set: it freezes and the other rows go on. The chunk's
        metric points are evaluated after its last step.
        """
        k0 = self.k
        if k0 == self.steps:
            raise RuntimeError(f"the run has ended at step {k0}")
        k1 = min(k0 + self.chunk_steps, self.steps)
        n_steps = k1 - k0
        obj, policy, cadence, full_batch = self.obj, self.policy, self.cadence, self.full_batch
        n_rows, dim = len(self.seeds), obj.dim
        tables = np.stack([s.draw(n_steps) for s in self._samplers])
        sigma = policy.sigma_schedule(k1, k0)

        # Chunk arrays hold the rows running at k0, compact, so that rows
        # running on after others retired take plain slices. `rows` numbers
        # the rows still running; `sel` indexes them in the chunk arrays and
        # `live` among all S rows, each a full slice while none has stopped.
        # Policies see all S rows, zeros for a stopped one, so that per-row
        # policy state stays aligned.
        rows = rows_at_k0 = self.rows
        x = self._x
        n_start = len(rows)
        sel: slice | np.ndarray = slice(None)
        live: slice | np.ndarray = slice(None) if n_start == n_rows else rows
        tab = tables if n_start == n_rows or full_batch else tables[rows]
        loss_c = np.full((n_start, n_steps), np.nan)
        gamma_c = np.full((n_start, n_steps), np.nan)
        grad_sq_c = np.full((n_start, n_steps), np.nan)
        stationary_c = np.zeros((n_start, n_steps), dtype=bool)
        iterates_c = np.full((n_start, n_steps, dim), np.nan) if self.store_iterates else None
        # every row's iterates at the cadence points, zeros where a row is
        # stopped; the last chunk adds each row's last iterate
        first = -(-k0 // cadence) if cadence > 0 else 0  # index of the first point
        metric_steps = (np.arange(first * cadence, k1, cadence) if cadence > 0
                        else np.empty(0, dtype=int))
        last = cadence > 0 and k1 == self.steps
        points = np.zeros((n_rows, len(metric_steps) + last, dim))
        component_min = None
        if policy.requires_component_min and obj.f_i_star is not None:
            component_min = obj.f_i_star[tables].mean(axis=-1)  # (S, n_steps), or (S, 1)
        ends = self.ends

        def next_end() -> int:
            """The step at which the next running row retires, or -1."""
            later = ends[rows][ends[rows] < self.steps]
            return int(later.min()) if len(later) else -1

        retire_at = next_end()

        # hoist hot-loop lookups
        evaluate = self._evaluate
        full_many = obj.full_many
        policy_stepsize = policy.stepsize
        vecdot = np.vecdot
        total = np.add.reduce
        zero = np.array(0.0)  # 0-d, as in stepsizes._ngn_formula
        isfinite = math.isfinite

        def stop(bad: np.ndarray, k: int, sigma_from: Optional[int]) -> None:
            """Freeze the rows flagged in `bad` at step k: diverged, or retired
            when sigma_from is None."""
            nonlocal rows, live, x, sel
            gone = rows[bad]
            self.X[gone] = x[bad]
            if sigma_from is not None:
                self.diverged_step[gone] = k
                self.sigma_end[gone] = sigma_from
            if isinstance(sel, slice):
                sel = np.arange(n_start)
            rows, x, sel = rows[~bad], x[~bad], sel[~bad]
            live = rows

        def probe(gamma: np.ndarray) -> np.ndarray:
            """Batch loss of every row at x - gamma * grad; stopped rows read 0."""
            point = x - gamma[live, None] * grad
            trial = (full_many(point) if full_batch else evaluate(idx, point))[0]
            if len(rows) == n_rows:
                return trial
            out = np.zeros(n_rows)
            out[rows] = trial
            return out

        # One observation, refreshed in place each step: the runner's losses are
        # clamped at zero and its squared norms are sums of squares, so the
        # constructor's validation is not repeated.
        obs = StepObservation(k=0, loss=np.zeros(n_rows), grad_sq_norm=np.zeros(n_rows),
                              probe=probe)

        # a diverging row overflows on its way out; it is flagged, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_steps if len(rows) else 0):
                k = k0 + j
                if k == retire_at:
                    stop(ends[rows] == k, k, None)
                    retire_at = next_end()
                    if not len(rows):
                        break
                if iterates_c is not None:
                    iterates_c[sel, j] = x
                if cadence > 0 and k % cadence == 0:
                    points[live, k // cadence - first] = x

                if full_batch:
                    loss, grad = full_many(x)
                else:
                    idx = tab[sel, j]
                    loss, grad = evaluate(idx, x)
                gsq = vecdot(grad, grad)
                loss_c[sel, j] = loss
                grad_sq_c[sel, j] = gsq

                # one sum is a cheap first test: no term exceeds it, and it is
                # NaN when any entry is
                if not total(np.abs(loss) + gsq) <= DIVERGENCE_THRESHOLD:
                    bad = ~((np.abs(loss) <= DIVERGENCE_THRESHOLD)
                            & (gsq <= DIVERGENCE_THRESHOLD))
                    if bad.any():
                        stop(bad, k, k)
                        if not len(rows):
                            break
                        loss, grad, gsq = loss[~bad], grad[~bad], gsq[~bad]
                        if not full_batch:
                            idx = idx[~bad]

                obs.k = k
                if len(rows) == n_rows:
                    # a NaN loss has stopped its row, so this clamps -0.0 and
                    # negatives to +0.0 and nothing else
                    obs.loss = np.maximum(loss, zero)
                    obs.grad_sq_norm = gsq
                else:
                    obs.loss = np.zeros(n_rows)
                    obs.grad_sq_norm = np.zeros(n_rows)
                    obs.loss[rows] = np.maximum(loss, zero)
                    obs.grad_sq_norm[rows] = gsq
                if component_min is not None:
                    obs.component_min = component_min[:, 0 if full_batch else j]
                try:
                    gamma = policy_stepsize(obs)
                except Exception as exc:  # noqa: BLE001 - annotate with step index
                    raise RunError(k, exc) from exc
                if len(rows) < n_rows:
                    gamma = gamma[rows]

                x_new = x - gamma[:, None] * grad
                # one sum tests every row: a NaN gamma (a stationary row) or a
                # non-finite coordinate makes it non-finite (inf-inf is nan)
                if isfinite(total(x_new, axis=None)):
                    gamma_c[sel, j] = gamma
                    x = x_new
                    continue
                still = np.isnan(gamma)
                if still.any():  # a stationary row takes no step
                    stationary_c[sel, j] = still
                    gamma = np.where(still, 0.0, gamma)
                    x_new[still] = x[still]
                gamma_c[sel, j] = gamma
                x = x_new
                bad = ~np.isfinite(x.sum(axis=1))
                if bad.any():
                    stop(bad, k, k + 1)
                    if not len(rows):
                        break

            self.k = k1
            if k1 == self.steps:
                self.X[rows] = x
            # the cadence points from m on lie past every row's trace; the
            # final points follow the others in the same full_many call
            lengths = self.lengths()
            m = int(np.searchsorted(metric_steps, lengths.max()))
            metric_steps = metric_steps[:m]
            if last:
                kept = self.diverged_step < 0
                points[kept, m] = self.X[kept]
            metrics = self._metrics(points[:, :m + last])
        self.rows, self._x = rows, x
        metrics[:, :, :m][:, metric_steps >= lengths[:, None]] = np.nan
        final = None
        if last:
            final = metrics[:, :, m].T
            final[self.diverged_step >= 0] = np.nan

        def whole(part: np.ndarray, fill) -> np.ndarray:
            """`part`, a chunk array of the rows running at k0, as one of all S rows."""
            if n_start == n_rows:
                return part
            out = np.full((n_rows,) + part.shape[1:], fill)
            out[rows_at_k0] = part
            return out

        return Chunk(k0, k1, tables, whole(loss_c, np.nan), whole(gamma_c, np.nan),
                     whole(grad_sq_c, np.nan), whole(stationary_c, False), sigma,
                     metric_steps, *metrics[:, :, :m], final=final,
                     iterates=None if iterates_c is None else whole(iterates_c, np.nan))


def _check_fresh(run: Run) -> None:
    """ValueError unless `run` is still at step 0: a consumer reads every chunk."""
    if run.k:
        raise ValueError(f"the run has advanced to step {run.k}; consumers need a run at step 0")


def whole_traces(run: Run) -> list[RunTrace]:
    """Advance `run` from step 0 to its end and return each row's whole trace.

    The traces hold every step, so memory grows with the step count; a
    caller that needs only a reduction of the trace, or writes it out
    (`write_traces`), can iterate the run's chunks itself and keep memory
    bounded by one chunk. ValueError if the run has already advanced.
    """
    _check_fresh(run)
    n_rows, steps, dim, cadence = len(run.seeds), run.steps, run.obj.dim, run.cadence
    loss_batch = np.empty((n_rows, steps))
    gamma = np.empty((n_rows, steps))
    grad_sq = np.empty((n_rows, steps))
    stationary = np.empty((n_rows, steps), dtype=bool)
    sigma = np.empty(steps)
    iterates = np.empty((n_rows, steps + 1, dim)) if run.store_iterates else None
    # every cadence point, then a slot that a row's final point may take
    n_points = -(-steps // cadence) if cadence > 0 else 0
    metrics = np.full((3, n_rows, n_points + 1), np.nan)
    ids = []  # (S, k1 - k0, batch) a chunk, or the one (S, 1, N) of full_batch
    for chunk in run:
        span = slice(chunk.k0, chunk.k1)
        loss_batch[:, span] = chunk.loss_batch
        gamma[:, span] = chunk.gamma
        grad_sq[:, span] = chunk.grad_sq
        stationary[:, span] = chunk.stationary
        sigma[span] = chunk.sigma
        if iterates is not None:
            iterates[:, span] = chunk.iterates
        if chunk.k0 == 0 or not run.full_batch:
            ids.append(chunk.batch_ids)
        if cadence > 0:
            metrics[:, :, chunk.metric_steps // cadence] = (
                chunk.loss_full, chunk.dist_sq, chunk.grad_full_sq)
    # sigma_k is the same for every row: one read-only row that the traces
    # share; a stopped row's copy reads NaN from sigma_end[r] on
    sigma.flags.writeable = False
    batch_ids = ids[0] if run.full_batch else np.concatenate(ids, axis=1)

    traces = []
    for r, (seed, length) in enumerate(zip(run.seeds, run.lengths().tolist())):
        end = int(run.ends[r])
        diverged = bool(run.diverged_step[r] >= 0)
        iterates_r = None
        if iterates is not None and not diverged:
            iterates[r, end] = run.X[r]
            iterates_r = iterates[r, :end + 1]
        metric_steps = (np.arange(0, length, cadence) if cadence > 0
                        else np.empty(0, dtype=int))
        if cadence > 0 and not diverged:  # its final point follows its cadence points
            metrics[:, r, len(metric_steps)] = chunk.final[r]
            metric_steps = np.append(metric_steps, end)
        n_recorded = len(metric_steps)
        traces.append(RunTrace(
            steps=end,
            x0=run.x_start[r],
            x_final=run.X[r],
            batch_ids=batch_ids[r] if run.full_batch else batch_ids[r, :end],
            loss_batch=loss_batch[r, :end],
            gamma=gamma[r, :end],
            sigma=run.row_sigma(r, sigma if end == steps else sigma[:end]),
            grad_sq=grad_sq[r, :end],
            stationary=stationary[r, :end],
            metric_steps=metric_steps,
            loss_full=metrics[0, r, :n_recorded],
            dist_sq=metrics[1, r, :n_recorded],
            grad_full_sq=metrics[2, r, :n_recorded],
            diverged=diverged,
            diverged_step=int(run.diverged_step[r]) if diverged else None,
            iterates=iterates_r,
            seed=seed,
        ))
    return traces


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


def _write_rows(fh, k0: int, n_rows: int, ids: np.ndarray, per_step: Sequence[np.ndarray],
                metric_steps: np.ndarray, metrics: Sequence[np.ndarray]) -> None:
    """Write the trace rows of steps k0 .. k0 + n_rows - 1, CSV_BLOCK_ROWS rows per join.

    `per_step` holds the loss_batch, gamma, sigma and grad_sq of steps k0 on,
    and `ids` their batch indices, or the one row that every full_batch
    step uses; `metrics` holds loss_full, dist_sq and grad_full_sq at the
    steps `metric_steps`. Cells are formatted a column at a time.
    """
    for a in range(0, n_rows, CSV_BLOCK_ROWS):
        b = min(a + CSV_BLOCK_ROWS, n_rows)
        if len(ids) == 1:  # full_batch: one row that every step uses
            id_cells = [";".join(map(str, ids[0].tolist()))] * (b - a)
        else:
            id_cells = list(map(";".join, zip(*(map(str, col)
                                                for col in ids[a:b].T.tolist()))))
        columns = [list(map(str, range(k0 + a, k0 + b))), id_cells]
        columns += [_cells(values[a:b]) for values in per_step]
        lo, hi = np.searchsorted(metric_steps, (k0 + a, k0 + b))
        at = (metric_steps[lo:hi] - (k0 + a)).tolist()
        for values in metrics:
            spread = [""] * (b - a)
            for row, cell in zip(at, _cells(values[lo:hi])):
                spread[row] = cell
            columns.append(spread)
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_traces(run: Run, paths: Sequence) -> np.ndarray:
    """Advance `run` from step 0 to its end, writing row r's trace CSV to paths[r].

    A file has the TRACE_COLUMNS header and one row per step of the trace;
    off-cadence and non-finite cells are empty, and a diverged trace ends at
    the step where it diverged. Each chunk's rows, its metric points among
    them, are written as soon as it is done, so memory stays within a chunk
    however long the run. Returns the (S, 4) final values of loss_full,
    dist_sq, grad_full_sq and gamma of each row, NaN for a row that
    diverged. With no paths it writes nothing and returns only these;
    ValueError, before any file is opened, for any other count than one
    path per row or for a run that has already advanced.
    """
    _check_fresh(run)
    if len(paths) not in (0, len(run.seeds)):
        raise ValueError(f"{len(paths)} trace paths for {len(run.seeds)} rows")
    last = np.full((len(run.seeds), 4), np.nan)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w")) for path in paths]
        for fh in files:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
        for chunk in run:
            lengths = run.lengths()
            for r, fh in enumerate(files):
                _write_rows(fh, chunk.k0, min(chunk.k1, lengths[r]) - chunk.k0, chunk.batch_ids[r],
                            (chunk.loss_batch[r], chunk.gamma[r],
                             run.row_sigma(r, chunk.sigma, chunk.k0), chunk.grad_sq[r]),
                            chunk.metric_steps,
                            (chunk.loss_full[r], chunk.dist_sq[r], chunk.grad_full_sq[r]))
            # the last gamma of each row that ended in this chunk
            ended = (chunk.k0 < run.ends) & (run.ends <= chunk.k1) & (run.diverged_step < 0)
            last[ended, 3] = chunk.gamma[ended, run.ends[ended] - 1 - chunk.k0]
    if chunk.final is not None:
        last[:, :3] = chunk.final
    return last
