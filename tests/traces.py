"""Whole per-row traces of a run, for tests that compare runs step by step.

The package reads a run a chunk at a time (`for chunk in run`) or writes it
out (`write_traces`); `whole_traces` copies every chunk into one trace per
row, so its memory grows with the step count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ngn.runner import Run, _check_fresh


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


def whole_traces(run: Run) -> list[RunTrace]:
    """Advance `run` from step 0 to its end and return each row's whole trace.

    The traces hold every step, so memory grows with the step count.
    ValueError if the run has already advanced.
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
