"""Whole per-row traces of a run, for tests that compare runs step by step.

The package reads a run a chunk at a time (`for chunk in run`) or writes it
out (`write_traces`); `whole_traces` copies every chunk into one trace per
row, so its memory grows with the step count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ngn.runner import Run, _check_fresh, metrics


@dataclass
class RunTrace:
    steps: int
    x0: np.ndarray
    x_final: np.ndarray
    # (steps, batch) sampled component indices, -1 past the trace's end;
    # under full_batch a single row, arange(N), that every step uses
    batch_ids: np.ndarray
    loss_batch: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    grad_sq: np.ndarray
    stationary: np.ndarray
    # the cadence points of the trace, then the final iterate's step unless
    # the row diverged; the iterates and metrics there
    metric_steps: np.ndarray
    iterates: np.ndarray
    loss_full: np.ndarray
    dist_sq: np.ndarray
    grad_full_sq: np.ndarray
    diverged: bool = False
    diverged_step: Optional[int] = None
    seed: int = 0


def whole_traces(run: Run) -> list[RunTrace]:
    """Advance `run` from step 0 to its end and return each row's whole trace.

    Each chunk's metrics, and those at the final iterates, are evaluated as
    `write_traces` evaluates them; a row's values come from the chunks that
    hold it, by `chunk.rows`. The traces hold every step, so memory grows
    with the step count. ValueError if the run has already advanced.
    """
    _check_fresh(run)
    n_rows, steps = len(run.seeds), run.steps
    x0 = run.X.copy()  # the start points, until the first chunk
    loss_batch = np.full((n_rows, steps), np.nan)
    gamma = np.full((n_rows, steps), np.nan)
    grad_sq = np.full((n_rows, steps), np.nan)
    stationary = np.zeros((n_rows, steps), dtype=bool)
    sigma = np.full((n_rows, steps), np.nan)
    # (S, steps, batch), or the one (S, 1, N) of full_batch
    batch_ids = np.full((n_rows, 1 if run.full_batch else steps, run._batch), -1)
    # each row's cadence points, their iterates and the metrics there, by chunk
    metric_steps, points, values = ([[] for _ in range(n_rows)] for _ in range(3))
    for chunk in run:
        span = slice(chunk.k0, chunk.k1)
        loss_batch[chunk.rows, span] = chunk.loss_batch
        gamma[chunk.rows, span] = chunk.gamma
        grad_sq[chunk.rows, span] = chunk.grad_sq
        stationary[chunk.rows, span] = chunk.stationary
        sigma[chunk.rows, span] = chunk.sigma
        batch_ids[chunk.rows, slice(None) if run.full_batch else span] = chunk.batch_ids
        chunk_values = metrics(run.obj, chunk.iterates)
        for c, r in enumerate(chunk.rows.tolist()):
            metric_steps[r].append(chunk.metric_steps)
            points[r].append(chunk.iterates[c])
            values[r].append(chunk_values[:, c])
    if run.cadence > 0:  # the final iterates follow, but a diverged row's
        finals = metrics(run.obj, run.X[:, None])
        for r in np.flatnonzero(run.diverged_step < 0).tolist():
            metric_steps[r].append([run.ends[r]])
            points[r].append(run.X[r, None])
            values[r].append(finals[:, r])
    # a trace's sigma_k is a read-only view of its row, but a copy that
    # reads NaN where its gamma is NaN
    sigma.flags.writeable = False

    traces = []
    for r, (seed, length) in enumerate(zip(run.seeds, run.lengths().tolist())):
        end = int(run.ends[r])
        diverged = bool(run.diverged_step[r] >= 0)
        gamma_r = gamma[r, :end]
        sigma_r = sigma[r, :end]
        if np.isnan(gamma_r).any():
            sigma_r = np.where(np.isnan(gamma_r), np.nan, sigma_r)
        steps_r = np.concatenate(metric_steps[r]).astype(int)
        on = (steps_r < length) | (steps_r == end)  # its cadence points, then its final one
        values_r = np.concatenate(values[r], axis=1)[:, on]
        ids_r = batch_ids[r] if run.full_batch else batch_ids[r, :end].copy()
        if not run.full_batch:  # past the trace, -1: a stopped row draws no more
            ids_r[length:] = -1
        traces.append(RunTrace(
            steps=end,
            x0=x0[r],
            x_final=run.X[r],
            batch_ids=ids_r,
            loss_batch=loss_batch[r, :end],
            gamma=gamma_r,
            sigma=sigma_r,
            grad_sq=grad_sq[r, :end],
            stationary=stationary[r, :end],
            metric_steps=steps_r[on],
            iterates=np.concatenate(points[r])[on],
            loss_full=values_r[0],
            dist_sq=values_r[1],
            grad_full_sq=values_r[2],
            diverged=diverged,
            diverged_step=int(run.diverged_step[r]) if diverged else None,
            seed=seed,
        ))
    return traces
