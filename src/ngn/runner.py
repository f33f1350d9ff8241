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
MAX_STEPS = int(np.iinfo(np.int64).max)  # the largest end step that Run.ends holds

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


class ParamError(ValueError):
    """`check_run`'s rejection of one parameter's value: `key` names the parameter."""

    def __init__(self, key: str, cause: str):
        super().__init__(f"{key}: {cause}")
        self.key = key


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


def check_run(obj: FiniteSumObjective, policy: StepsizePolicy,
              steps: Union[int, Sequence[int]], *,
              seeds: Sequence[int] = (0,), sampler: str = "with_replacement_uniform",
              batch_size: int = 1, x0: Optional[np.ndarray] = None) -> None:
    """Raise ValueError unless this objective and policy can run with these parameters;
    a ParamError when one parameter's value alone is at fault.

    `steps` is one end step for every row, or one per row. Row r runs seed
    seeds[r] with the policy's values of row r: no two rows may have the
    same seed and the same parameter values.
    """
    ends = list(steps) if np.ndim(steps) else [steps]
    if min(ends, default=1) < 1:
        raise ParamError("steps", "must be >= 1")
    if max(ends, default=1) > MAX_STEPS:
        raise ParamError("steps", f"must be <= {MAX_STEPS}, got {max(ends)}")
    if not seeds:
        raise ParamError("seeds", "at least one seed is required")
    rows = list(zip(seeds, policy.row_params(len(seeds))))
    if len(set(rows)) < len(rows):
        seed, values = next(row for r, row in enumerate(rows) if row in rows[:r])
        raise ValueError(f"each row needs its own seed or parameter values; seed {seed} "
                         "repeats" + (f" with parameter values {values}" if values else ""))
    if min(seeds) < 0:
        raise ParamError("seeds", f"must be >= 0, got {min(seeds)}")
    if sampler not in SAMPLERS:
        raise ParamError("sampler",
                         f"unknown sampler {sampler!r}; choose from {', '.join(SAMPLERS)}")
    if not 1 <= batch_size <= obj.n:
        raise ParamError("batch_size",
                         f"must be between 1 and the component count {obj.n}, got {batch_size}")
    if sampler == "full_batch" and batch_size not in (1, obj.n):
        raise ValueError("full_batch implies batch_size = N")
    if policy.requires_full_batch and sampler != "full_batch":
        raise ValueError(f"{type(policy).__name__} requires sampler = full_batch")
    if x0 is not None:
        try:
            as_point(x0, obj.dim)
        except ValueError as exc:
            raise ParamError("x0", str(exc)) from None


def _chunk_steps(rows: int, width: int) -> int:
    """Steps per chunk of a run whose rows keep `width` entries per step."""
    return _block_rows(rows * width)


@dataclass
class Chunk:
    """Steps k0 .. k1-1 of the rows running at k0, in row order: `rows` numbers them
    among the run's S rows, and each per-step array is (R, k1 - k0, ...), R = len(rows).

    gamma is the policy's, NaN where the loss test stopped a row before its
    call. A row that stops inside the chunk reads NaN after its stop. With
    a cadence c > 0 the chunk also carries their iterates at its cadence
    points, x^k for k0 <= k < k1 with k % c == 0, NaN after a row's stop;
    whoever reads a metric evaluates it there (`metrics`). A row's final
    iterate is in `Run.X`. Once every row has stopped, one chunk of no rows
    and no cadence points takes the run to its end.

    The per-step fields batch_ids, loss_batch, gamma, grad_sq and sigma
    may be non-contiguous views, transposes of the run's step-major stores
    (batch_ids is one of the (k1 - k0, R, batch) index table, and sigma a
    read-only one, with a stride of 0 across rows when they share one
    sigma): copy one before handing it to code that needs contiguous
    memory.
    """

    k0: int
    k1: int
    rows: np.ndarray  # (R,) the rows running at k0
    batch_ids: np.ndarray  # (R, k1 - k0, batch), or (R, 1, N) under full_batch
    loss_batch: np.ndarray
    gamma: np.ndarray
    grad_sq: np.ndarray
    sigma: np.ndarray  # each row's sigma_k
    metric_steps: np.ndarray  # (m,) the cadence points' steps
    iterates: np.ndarray  # (R, m, d) x^k at metric_steps


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
    default_rng([seed, 1]) for the indices, which its `_Sampler` deals, and the
    numbers of its running rows, `_ids`, which `_stop` compacts when a row
    stops.

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
        check_run(obj, policy, ends, seeds=seeds, sampler=sampler, batch_size=batch_size, x0=x0)
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
        self._ids = np.arange(n_rows)  # the running rows; X gets a row's iterate when it stops
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

    def _stop(self, bad: np.ndarray, x: np.ndarray, sel, diverged_at: Optional[int] = None):
        """Stop the running rows flagged in `bad`, of iterates `x` and chunk index `sel`: diverged
        at step `diverged_at`, or retired at their end when it is None. X gets their iterates,
        the policy keeps the others' state; returns the others' (x, sel)."""
        gone, keep = self._ids[bad], ~bad
        self.X[gone] = x[bad]
        if diverged_at is not None:
            self.diverged_step[gone] = diverged_at
        self._ids = self._ids[keep]
        self.policy.keep_rows(keep)
        if isinstance(sel, slice):
            sel = np.arange(len(x))
        return x[keep], sel[keep]

    def advance(self) -> Chunk:
        """Run steps k .. k1-1 of the R rows running at k, k1 = min(k + _chunk_steps(R, width),
        the next end among them), or the run's end when R = 0; the rows that end at k1 retire
        after its last step.

        A batch loss or squared batch gradient norm that is not finite or is
        above 1e30 halts that row before the policy's call, a non-finite
        coordinate (as a non-finite gamma makes) after its step; either way
        the diverged flag is set, it freezes and the other rows go on.
        """
        k0 = self.k
        if k0 == self.steps:
            raise RuntimeError(f"the run has ended at step {k0}")
        obj, policy, cadence, full_batch = self.obj, self.policy, self.cadence, self.full_batch
        dim = obj.dim
        # Chunk arrays hold the rows running at k0, compact, so that rows
        # running on after others stopped take plain slices; `sel` indexes
        # the rows still running in them, set anew by each stop.
        ids, sel = self._ids, slice(None)
        x, n_start = self.X[ids], len(ids)
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
        threshold_sq = DIVERGENCE_THRESHOLD * DIVERGENCE_THRESHOLD
        zero = np.array(0.0)  # 0-d, as in stepsizes._ngn_formula
        isfinite = math.isfinite

        def probe(gamma: np.ndarray) -> np.ndarray:
            """Full loss of every running row at x - gamma * grad."""
            return full_many(x - gamma[:, None] * grad)[0]

        # One observation, refreshed in place each step: the runner's losses are
        # clamped at zero and its squared norms are sums of squares, so the
        # constructor's validation is not repeated. Only a full_batch run probes.
        obs = StepObservation(k=0, loss=zero, grad_sq_norm=zero,
                              probe=probe if full_batch else None)

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

                # Fast guard, one BLAS dot: the sum of squares of every loss
                # and gsq. A sum of nonnegative terms rounds to at least each
                # term in any order, so passing puts every |loss| and gsq at
                # or below the threshold; NaN and inf fail it, and failing
                # only leads to the exact per-row test.
                if not row.dot(row) < threshold_sq:
                    bad = ~((np.abs(loss) <= DIVERGENCE_THRESHOLD)
                            & (gsq <= DIVERGENCE_THRESHOLD))
                    if bad.any():
                        x, sel = self._stop(bad, x, sel, k)
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

                gamma_c[j, sel] = gamma
                x = x - gamma[:, None] * grad
                # Fast guard, one BLAS dot: the sum of squares of every
                # coordinate. A non-finite gamma or coordinate fails it in
                # any summation order; so do finite coordinates whose
                # squares overflow (above about 1.3e154), but failing only
                # leads to the exact per-row test, which stops a row on a
                # non-finite coordinate, not on its sum.
                flat = x.reshape(-1)
                if not isfinite(flat.dot(flat)):
                    bad = ~np.isfinite(x).all(axis=1)
                    if bad.any():
                        x, sel = self._stop(bad, x, sel, k)
                        if not len(x):
                            break

        self.k = k1
        self.X[self._ids] = x
        self._stop(self.ends[self._ids] == k1, x, sel)  # the rows that end at k1 retire
        return Chunk(k0, k1, ids, tables.transpose(1, 0, 2), lg_c[:, 0].T, gamma_c.T,
                     lg_c[:, 1].T, sigma.T, metric_steps, iterates_c)


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
    the step where it diverged, its sigma cell empty where its gamma is NaN
    (where the loss test stopped it, or a NaN gamma did). Each chunk's
    metrics are evaluated at its rows' cadence points in one full_many call
    and each of its rows' trace rows written as soon as it is done, so
    memory stays within a chunk however long the run. Returns the (S, 4)
    final values of loss_full, dist_sq, grad_full_sq and gamma of each
    row, the first three at its final iterate in `Run.X` (one full_many
    call after the last chunk), NaN for a row that diverged, the first
    three NaN without a cadence. With no paths it writes nothing, evaluates
    no cadence point and returns only these; ValueError, before any file
    is opened, for any other count than one path per row or for a run that
    has already advanced.
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
