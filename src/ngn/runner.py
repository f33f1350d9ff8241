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
REFILL_CHUNKS = 8  # a with-replacement refill draws at least this many S-row chunks' indices

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


class _Sampler:
    """One row's component indices, dealt in order from a buffer that its stream refills.

    A with-replacement refill draws `refill` indices, or what the draw needs
    if that is more, and none past the row's `end` steps: a row holds at most
    one refill, a size fixed by the run's row count, not by the step count.
    epoch_shuffle refills with whole permutations. Either way the draws in a
    row deal the indices of one draw of all their steps: `integers` splits
    without a seam.
    """

    def __init__(self, mode: str, n: int, batch: int, rng: np.random.Generator, end: int,
                 refill: int):
        self.shuffle, self.n, self.batch, self.rng = mode == "epoch_shuffle", n, batch, rng
        self.left, self.refill = end * batch, refill  # indices the row may still draw
        self.rest = np.empty(0, dtype=np.int64)

    def _more(self, need: int) -> np.ndarray:
        """At least `need` more indices: whole permutations, or a refill."""
        if self.shuffle:
            return np.concatenate([self.rng.permutation(self.n) for _ in range(-(-need // self.n))])
        size = min(max(need, self.refill), self.left)
        self.left -= size
        return self.rng.integers(0, self.n, size=size)

    def draw(self, steps: int) -> np.ndarray:
        """(steps, batch) indices, the row's next."""
        need, have = steps * self.batch, len(self.rest)
        if have < need:
            more = self._more(need - have)
            self.rest = np.concatenate([self.rest, more]) if have else more
        order, self.rest = self.rest[:need], self.rest[need:]
        return order.reshape(steps, self.batch)


def check_run(obj: FiniteSumObjective, policy: StepsizePolicy, steps: int, *,
              seeds: Sequence[int] = (0,), sampler: str = "with_replacement_uniform",
              batch_size: int = 1, x0: Optional[np.ndarray] = None) -> None:
    """Raise ValueError unless this objective and policy can run with these parameters.

    Row r runs seed seeds[r] with the policy's values of row r: no two rows may
    have the same seed and the same parameter values.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not seeds:
        raise ValueError("at least one seed is required")
    rows = list(zip(seeds, policy.row_params(len(seeds))))
    if len(set(rows)) < len(rows):
        seed, values = next(row for r, row in enumerate(rows) if row in rows[:r])
        raise ValueError(f"each row needs its own seed or parameter values; seed {seed} "
                         "repeats" + (f" with parameter values {values}" if values else ""))
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
    """Steps k0 .. k1-1 of the rows running at k0, in row order: `rows` numbers them
    among the run's S rows, and each per-step array is (R, k1 - k0, ...), R = len(rows).

    A row that stops inside the chunk reads NaN after its stop (False in
    `stationary`). With a cadence c > 0 the chunk also carries their
    iterates at its cadence points, x^k for k0 <= k < k1 with k % c == 0,
    NaN after a row's stop; whoever reads a metric evaluates it there
    (`metrics`). A row's final iterate is in `Run.X`. Once every row has
    stopped, one chunk of no rows and no cadence points takes the run to
    its end.

    The per-step fields batch_ids, loss_batch, gamma, grad_sq, stationary
    and sigma may be non-contiguous views, transposes of the run's
    step-major stores (batch_ids is one of the (k1 - k0, R, batch) index
    table, and sigma a read-only one, with a stride of 0 across rows when
    they share one sigma): copy one before handing it to code that needs
    contiguous memory.
    """

    k0: int
    k1: int
    rows: np.ndarray  # (R,) the rows running at k0
    batch_ids: np.ndarray  # (R, k1 - k0, batch), or (R, 1, N) under full_batch
    loss_batch: np.ndarray
    gamma: np.ndarray
    grad_sq: np.ndarray
    stationary: np.ndarray
    sigma: np.ndarray  # each row's sigma_k
    metric_steps: np.ndarray  # (m,) the cadence points' steps
    iterates: np.ndarray  # (R, m, d) x^k at metric_steps


class _Rows:
    """The rows of a run still running, in row order: `stop` is the one place they shrink.

    `ids` numbers them among the run's S rows and `x` holds their iterates;
    `sel` indexes them in the chunk arrays, which hold the rows running at
    the chunk's start, and is a full slice while all of those run.
    """

    def __init__(self, run: Run):
        self.X, self.diverged_step, self.policy = run.X, run.diverged_step, run.policy
        self.ids, self.x = np.arange(len(run.X)), run.X

    def start(self) -> tuple:
        """Make the running rows a new chunk's rows; (x, sel) for the step loop."""
        self.sel = slice(None)
        return self.x, self.sel

    def stop(self, bad: np.ndarray, x: np.ndarray, diverged_at: Optional[int] = None) -> tuple:
        """Freeze the rows flagged in `bad`, `x` the running rows' iterates: diverged at step
        `diverged_at`, or retired at their end when it is None. X gets their iterates, the
        policy keeps the others' state; returns the new (x, sel)."""
        gone, keep = self.ids[bad], ~bad
        self.X[gone] = x[bad]
        if diverged_at is not None:
            self.diverged_step[gone] = diverged_at
        if isinstance(self.sel, slice):
            self.sel = np.arange(len(x))
        self.ids, self.sel, self.x = self.ids[keep], self.sel[keep], x[keep]
        self.policy.keep_rows(keep)
        return self.x, self.sel


class Run:
    """x^{k+1} = x^k - gamma_k * grad_batch(x^k) for S rows, one seed each, in lockstep.

    Each `advance` takes the running rows through the next chunk, steps
    [k0, k1) of about ROW_BLOCK_ENTRIES entries of those rows, or fewer when
    one of them ends before, and returns their per-step values and their
    iterates at the cadence points as a `Chunk` of those rows; iterating the
    run takes it to its end, as does `write_traces`. The run steps and
    keeps iterates; whoever reads a metric evaluates it (`metrics`). From
    chunk to chunk the run carries the policy's per-row state, each row's
    two streams, default_rng([seed, 0]) for the start point and
    default_rng([seed, 1]) for the indices, which its `_Sampler` deals, and its
    running rows, which one `_Rows` holds: their numbers and iterates,
    compacted by its `stop` when a row stops.

    X holds every row's start point until the first chunk, then each row's
    iterate as of its stop or the last chunk. `steps` is one end step for
    every row, or one per row: a row that reaches its end before the others
    retires with the chunk that ends there, stopped without the diverged
    flag, its last iterate kept in X; the run ends at the largest.
    """

    def __init__(self, obj: FiniteSumObjective, policy: StepsizePolicy,
                 steps: Union[int, Sequence[int]], *, seeds: Sequence[int] = (0,),
                 sampler: str = "with_replacement_uniform", batch_size: int = 1,
                 x0: Optional[np.ndarray] = None, cadence: int = 0):
        seeds = [int(s) for s in seeds]
        if np.ndim(steps) and np.shape(steps) != (len(seeds),):
            raise ValueError(f"steps holds {np.size(steps)} ends in shape {np.shape(steps)} "
                             f"for {len(seeds)} rows; give one end step, or one per row")
        ends = [int(e) for e in np.broadcast_to(steps, (len(seeds),))]
        check_run(obj, policy, min(ends, default=1), seeds=seeds, sampler=sampler,
                  batch_size=batch_size, x0=x0)
        n_rows, dim = len(seeds), obj.dim
        self.obj, self.policy, self.seeds, self.cadence = obj, policy, seeds, cadence
        self.ends = np.array(ends)
        self.steps = max(ends)
        self.full_batch = sampler == "full_batch"
        start = None if x0 is None else as_point(x0, dim)
        self.X = np.empty((n_rows, dim))
        for r, seed in enumerate(seeds):
            self.X[r] = (start if start is not None
                         else np.random.default_rng([seed, 0]).standard_normal(dim))
        policy.reset()
        self.k = 0
        self.diverged_step = np.full(n_rows, -1)
        self._rows = _Rows(self)  # which rows still run; X gets a row's iterate when it stops
        self._batch = obj.n if self.full_batch else batch_size  # indices a step
        self._width = dim + 4 + (0 if self.full_batch else batch_size)  # entries a row-step
        refill = REFILL_CHUNKS * _chunk_steps(n_rows, self._width) * batch_size
        self._samplers = [] if self.full_batch else [
            _Sampler(sampler, obj.n, batch_size, np.random.default_rng([seed, 1]), end, refill)
            for seed, end in zip(seeds, ends)]

    def __iter__(self):
        while self.k < self.steps:
            yield self.advance()

    def lengths(self) -> np.ndarray:
        """(S,) steps of each row's trace: through the step where it diverged, else to its end."""
        return np.where(self.diverged_step >= 0, self.diverged_step + 1, self.ends)

    def advance(self) -> Chunk:
        """Run steps k .. k1-1 of the R rows running at k, k1 = min(k + _chunk_steps(R, width),
        the next end among them), or the run's end when R = 0; the rows that end at k1 retire
        after its last step.

        A batch loss or squared batch gradient norm that is not finite or is
        above 1e30, or a non-finite coordinate, halts that row with the
        diverged flag set: it freezes and the other rows go on.
        """
        k0 = self.k
        if k0 == self.steps:
            raise RuntimeError(f"the run has ended at step {k0}")
        obj, policy, cadence, full_batch = self.obj, self.policy, self.cadence, self.full_batch
        dim = obj.dim
        # Chunk arrays hold the rows running at k0, compact, so that rows
        # running on after others stopped take plain slices. The step loop
        # keeps `rows`' fields in locals, set anew by each stop.
        rows = self._rows
        x, sel = rows.start()
        ids, n_start = rows.ids, len(x)
        if n_start:
            k1 = min(k0 + _chunk_steps(n_start, self._width), int(self.ends[ids].min()))
            sigma = policy.sigma_schedule(k1, k0)
        else:  # every row has stopped: a chunk of none takes the run to its end
            k1, sigma = self.steps, np.empty((1, 0))  # no sigma_k: (1, 0) broadcasts
        n_steps = k1 - k0
        # step-major, so that step j's indices are one contiguous block tables[j]
        tables = np.empty((1 if full_batch else n_steps, n_start, self._batch), dtype=np.int64)
        for c, r in enumerate(ids.tolist()):
            tables[:, c] = np.arange(obj.n) if full_batch else self._samplers[r].draw(n_steps)
        # (n_steps, n_start) sigma_k of each running row: the policy's sigma
        # holds one value for them all or one for each
        sigma = np.broadcast_to(sigma[:, None] if sigma.ndim == 1 else sigma, (n_steps, n_start))
        # step-major, so that each step writes contiguous rows: step j's batch
        # losses and squared gradient norms are lg_c[j], one row lg_flat[j]
        lg_c = np.full((n_steps, 2, n_start), np.nan)
        lg_flat = lg_c.reshape(n_steps, 2 * n_start)
        gamma_c = np.full((n_steps, n_start), np.nan)
        stationary_c = np.zeros((n_steps, n_start), dtype=bool)
        # x^k at each cadence point, NaN where a row is stopped: `point` is
        # the next one's step and i its index; without a cadence, never reached
        metric_steps = (np.arange(-(-k0 // cadence) * cadence, k1, cadence)
                        if cadence > 0 and n_start else np.empty(0, dtype=int))
        iterates_c = np.full((n_start, len(metric_steps), dim), np.nan)
        i, point = 0, int(metric_steps[0]) if len(metric_steps) else -1
        component_min = None
        if policy.requires_component_min and obj.f_i_star is not None:
            component_min = obj.f_i_star[tables].mean(axis=-1)  # (n_steps or 1, n_start)

        # hoist hot-loop lookups
        eval_many = obj.eval_many
        full_many = obj.full_many
        policy_stepsize = policy.stepsize
        vecdot = np.vecdot
        total = np.add.reduce
        threshold_sq = DIVERGENCE_THRESHOLD * DIVERGENCE_THRESHOLD
        zero = np.array(0.0)  # 0-d, as in stepsizes._ngn_formula
        isfinite = math.isfinite

        def probe(gamma: np.ndarray) -> np.ndarray:
            """Batch loss of every running row at x - gamma * grad."""
            trial = x - gamma[:, None] * grad
            return (full_many(trial) if full_batch else eval_many(tables[j, sel], trial))[0]

        # One observation, refreshed in place each step: the runner's losses are
        # clamped at zero and its squared norms are sums of squares, so the
        # constructor's validation is not repeated.
        obs = StepObservation(k=0, loss=zero, grad_sq_norm=zero, probe=probe)

        # a diverging row overflows on its way out; it is flagged, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_steps if n_start else 0):
                k = k0 + j
                if k == point:
                    iterates_c[sel, i] = x
                    i, point = i + 1, point + cadence

                if full_batch:
                    loss, grad = full_many(x)
                else:
                    loss, grad = eval_many(tables[j, sel], x)
                # loss and gsq go straight into the store's row for step j; once
                # a row has stopped in this chunk, into a compact row copied there
                n = len(x)
                row = lg_flat[j] if n == n_start else np.empty(2 * n)
                row[:n] = loss
                gsq = vecdot(grad, grad, out=row[n:])
                if n < n_start:
                    lg_c[j][:, sel] = row.reshape(2, n)

                # one sum of squares is a cheap first test: a sum of nonnegative
                # terms rounds to at least each term, so passing it puts every
                # |loss| and gsq below the threshold; NaN fails it
                if not vecdot(row, row) < threshold_sq:
                    bad = ~((np.abs(loss) <= DIVERGENCE_THRESHOLD)
                            & (gsq <= DIVERGENCE_THRESHOLD))
                    if bad.any():
                        x, sel = rows.stop(bad, x, k)
                        if not len(x):
                            break
                        loss, grad, gsq = loss[~bad], grad[~bad], gsq[~bad]

                obs.k, obs.sigma = k, sigma[j, sel]
                # a NaN loss has stopped its row, so this clamps -0.0 and
                # negatives to +0.0 and nothing else
                obs.loss = np.maximum(loss, zero)
                obs.grad_sq_norm = gsq
                if component_min is not None:
                    obs.component_min = component_min[0 if full_batch else j, sel]
                try:
                    gamma = policy_stepsize(obs)
                except Exception as exc:  # noqa: BLE001 - annotate with step index
                    raise RunError(k, exc) from exc

                x_new = x - gamma[:, None] * grad
                # one sum tests every row: a NaN gamma (a stationary row) or a
                # non-finite coordinate makes it non-finite (inf-inf is nan)
                if isfinite(total(x_new, axis=None)):
                    gamma_c[j, sel] = gamma
                    x = x_new
                    continue
                still = np.isnan(gamma)
                if still.any():  # a stationary row takes no step
                    stationary_c[j, sel] = still
                    gamma = np.where(still, 0.0, gamma)
                    x_new[still] = x[still]
                gamma_c[j, sel] = gamma
                x = x_new
                bad = ~np.isfinite(x.sum(axis=1))
                if bad.any():
                    x, sel = rows.stop(bad, x, k)
                    if not len(x):
                        break

        self.k = k1
        self.X[rows.ids] = x
        rows.stop(self.ends[rows.ids] == k1, x)  # the rows that end at k1 retire
        return Chunk(k0, k1, ids, tables.transpose(1, 0, 2), lg_c[:, 0].T, gamma_c.T,
                     lg_c[:, 1].T, stationary_c.T, sigma.T, metric_steps, iterates_c)


def metrics(obj: FiniteSumObjective, points: np.ndarray) -> np.ndarray:
    """(3, S, m) loss_full, dist_sq and grad_full_sq at (S, m, d) points.

    One full_many call over the finite points, none when there are none:
    full_many's own row blocks bound its temporaries. A point with a
    non-finite coordinate, such as a chunk's iterate of a stopped row,
    reads NaN; dist_sq is NaN when x* is unknown. A value that overflows
    (a diverging iterate's) reads inf without a warning.
    """
    out = np.full((3,) + points.shape[:2], np.nan)
    at = np.isfinite(points).all(axis=2)
    if not at.any():
        return out
    flat = points[at]
    with np.errstate(over="ignore", invalid="ignore"):
        fv, fg = obj.full_many(flat)
        out[0][at] = fv
        if obj.x_star is not None:
            diff = flat - obj.x_star
            out[1][at] = np.vecdot(diff, diff)
        out[2][at] = np.vecdot(fg, fg)
    return out


def _check_fresh(run: Run) -> None:
    """ValueError unless `run` is still at step 0: a consumer reads every chunk."""
    if run.k:
        raise ValueError(f"the run has advanced to step {run.k}; consumers need a run at step 0")


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
    """Shortest round-trip text of each value; empty where it is not finite.

    A block of one float64 value, bit for bit (so -0.0 is not 0.0), is
    formatted once.
    """
    bits = values.view(np.uint64)
    if len(values) > 1 and bits[0] == bits[-1] and (bits == bits[0]).all():
        first = float(values[0])
        return [repr(first) if math.isfinite(first) else ""] * len(values)
    # tolist() first: repr of a numpy scalar is "np.float64(...)" under numpy >= 2
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[i] = ""
    return cells


def _write_rows(fh, steps: list[str], ids: np.ndarray, per_step: Sequence[np.ndarray],
                k0: int, cadence: int, metric_steps: np.ndarray,
                metrics: Sequence[np.ndarray]) -> None:
    """Write one trace row per cell of `steps`, the text of steps k0 on, CSV_BLOCK_ROWS per join.

    `per_step` holds the loss_batch, gamma, sigma and grad_sq of steps k0 on,
    and `ids` their batch indices, or the one row that every full_batch
    step uses; `metrics` holds loss_full, dist_sq and grad_full_sq at the
    steps `metric_steps`, multiples of `cadence`. Cells are formatted a
    column at a time, and a metric column whose block is bit for bit one
    already formatted in that block (dist_sq and grad_full_sq on
    two_quadratics) takes its cells.
    """
    n_rows = len(steps)
    for a in range(0, n_rows, CSV_BLOCK_ROWS):
        b = min(a + CSV_BLOCK_ROWS, n_rows)
        if len(ids) == 1:  # full_batch: one row that every step uses
            id_cells = [";".join(map(str, ids[0].tolist()))] * (b - a)
        elif ids.shape[1] == 1:
            id_cells = list(map(str, ids[a:b, 0].tolist()))
        else:
            id_cells = list(map(";".join, zip(*(map(str, col)
                                                for col in ids[a:b].T.tolist()))))
        columns = [steps[a:b], id_cells]
        columns += [_cells(values[a:b]) for values in per_step]
        lo, hi = np.searchsorted(metric_steps, (k0 + a, k0 + b)).tolist()
        formatted: list[tuple[np.ndarray, list[str]]] = []  # (bits, cells) of this block
        for values in metrics:
            spread = [""] * (b - a)
            if hi > lo:  # the rows of the cadence points, every cadence-th from the first
                block = values[lo:hi]
                bits = block.view(np.uint64)
                cells = next((c for seen, c in formatted if np.array_equal(seen, bits)), None)
                if cells is None:
                    cells = _cells(block)
                    formatted.append((bits, cells))
                first = int(metric_steps[lo]) - (k0 + a)
                spread[first:first + cadence * (hi - lo):cadence] = cells
            columns.append(spread)
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_traces(run: Run, paths: Sequence) -> np.ndarray:
    """Advance `run` from step 0 to its end, writing row r's trace CSV to paths[r].

    A file has the TRACE_COLUMNS header and one row per step of the trace;
    off-cadence and non-finite cells are empty, and a diverged trace ends at
    the step where it diverged, its sigma cell empty where the loss test
    stopped it (its gamma is NaN there). Each chunk's metrics are evaluated
    at its rows' cadence points in one full_many call and each of its rows'
    trace rows written as soon as it is done, so memory stays within a
    chunk however long the run. Returns the (S, 4) final values of
    loss_full, dist_sq, grad_full_sq and gamma of each row, the first three
    at its final iterate in `Run.X` (one full_many call after the last
    chunk), NaN for a row that diverged, the first three NaN without a
    cadence. With no paths it writes nothing, evaluates no cadence point
    and returns only these; ValueError, before any file is opened, for any
    other count than one path per row or for a run that has already
    advanced.
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
            if files:  # each row's rows of the chunk, to the end of its trace
                values = metrics(run.obj, chunk.iterates)
                lengths = np.minimum(run.lengths()[chunk.rows], chunk.k1) - chunk.k0
                steps = list(map(str, range(chunk.k0, chunk.k1)))
                for c, r in enumerate(chunk.rows.tolist()):
                    gamma = chunk.gamma[c]
                    _write_rows(files[r], steps[:lengths[c]], chunk.batch_ids[c],
                                (chunk.loss_batch[c], gamma,
                                 np.where(np.isnan(gamma), np.nan, chunk.sigma[c]),
                                 chunk.grad_sq[c]),
                                chunk.k0, run.cadence, chunk.metric_steps, values[:, c])
            # the last gamma of each row that ended with this chunk
            ended = (run.ends[chunk.rows] == chunk.k1) & (run.diverged_step[chunk.rows] < 0)
            last[chunk.rows[ended], 3] = chunk.gamma[ended, -1]
    if run.cadence > 0:  # at each row's final iterate, X, but a diverged row's
        kept = (run.diverged_step < 0)[:, None, None]
        last[:, :3] = metrics(run.obj, np.where(kept, run.X[:, None], np.nan))[:, :, 0].T
    return last
