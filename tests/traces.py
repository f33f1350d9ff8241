"""Whole per-row traces of a run, for tests that compare runs step by step.

The package reads a run a chunk at a time (`for chunk in run`) or writes it
out (`write_traces`); `whole_traces` copies every chunk into one trace per
row, so its memory grows with the step count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ngn.runner import Run, _check_fresh, metric_points, metrics


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

    Each chunk's metrics are evaluated as `write_traces` evaluates them. The
    traces hold every step, so memory grows with the step count.
    ValueError if the run has already advanced.
    """
    _check_fresh(run)
    n_rows, steps = len(run.seeds), run.steps
    x0 = run.X.copy()  # the start points, until the first chunk
    loss_batch = np.empty((n_rows, steps))
    gamma = np.empty((n_rows, steps))
    grad_sq = np.empty((n_rows, steps))
    stationary = np.empty((n_rows, steps), dtype=bool)
    sigma = np.empty((n_rows, steps))
    ids = []  # (S, k1 - k0, batch) a chunk, or the one (S, 1, N) of full_batch
    metric_steps, points, values = [], [], []
    for chunk in run:
        span = slice(chunk.k0, chunk.k1)
        loss_batch[:, span] = chunk.loss_batch
        gamma[:, span] = chunk.gamma
        grad_sq[:, span] = chunk.grad_sq
        stationary[:, span] = chunk.stationary
        sigma[:, span] = chunk.sigma
        if chunk.k0 == 0 or not run.full_batch:
            ids.append(chunk.batch_ids)
        metric_steps.append(chunk.metric_steps)
        points.append(metric_points(run, chunk))
        values.append(metrics(run.obj, points[-1]))
    # a trace's sigma_k is a read-only view of its row, but a copy that
    # reads NaN where its gamma is NaN
    sigma.flags.writeable = False
    batch_ids = ids[0] if run.full_batch else np.concatenate(ids, axis=1)
    metric_steps = np.concatenate(metric_steps)
    points = np.concatenate(points, axis=1)  # the final points, if any, last
    values = np.concatenate(values, axis=2)

    traces = []
    for r, (seed, length) in enumerate(zip(run.seeds, run.lengths().tolist())):
        end = int(run.ends[r])
        diverged = bool(run.diverged_step[r] >= 0)
        gamma_r = gamma[r, :end]
        sigma_r = sigma[r, :end]
        if np.isnan(gamma_r).any():
            sigma_r = np.where(np.isnan(gamma_r), np.nan, sigma_r)
        on = metric_steps < length
        at = np.flatnonzero(on)
        steps_r = metric_steps[on]
        if run.cadence > 0 and not diverged:  # its final point follows its cadence points
            at = np.append(at, len(metric_steps))
            steps_r = np.append(steps_r, end)
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
            metric_steps=steps_r,
            iterates=points[r, at],
            loss_full=values[0, r, at],
            dist_sq=values[1, r, at],
            grad_full_sq=values[2, r, at],
            diverged=diverged,
            diverged_step=int(run.diverged_step[r]) if diverged else None,
            seed=seed,
        ))
    return traces
