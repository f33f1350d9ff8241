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
    batch_ids: np.ndarray  # (steps, batch) sampled component indices
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
        return np.tile(np.arange(n), (steps, 1))
    if mode == "with_replacement_uniform":
        return rng.integers(0, n, size=(steps, batch))
    # epoch_shuffle: concatenated permutations, chopped into batches
    need = steps * batch
    epochs = -(-need // n)
    order = np.concatenate([rng.permutation(n) for _ in range(epochs)])
    return order[:need].reshape(steps, batch)


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
    """Run x^{k+1} = x^k - gamma_k * grad_batch(x^k) for `steps` iterations.

    Deterministic given (arguments, seed). Metric cadence c > 0 records full
    objective value, squared distance to x* (when known) and squared full
    gradient norm at every c-th iterate plus the final one. A non-finite
    coordinate, or a batch loss / squared batch gradient norm above 1e30,
    halts the run with the diverged flag set.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    sampler = sampler or SamplerSpec()
    if sampler.mode == "full_batch" and sampler.batch_size not in (1, obj.n):
        raise ValueError("full_batch implies batch_size = N")
    if sampler.batch_size > obj.n:
        raise ValueError("batch_size exceeds component count")
    if policy.requires_full_batch and sampler.mode != "full_batch":
        raise ValueError(f"{type(policy).__name__} requires full_batch sampling")

    rng_init = np.random.default_rng([seed, 0])
    rng_sample = np.random.default_rng([seed, 1])
    x = as_point(x0, obj.dim) if x0 is not None else rng_init.standard_normal(obj.dim)
    x = x.astype(float, copy=True)
    x_start = x.copy()
    policy.reset()

    indices = _draw_indices(sampler.mode, obj.n, sampler.batch_size, steps, rng_sample)
    full_batch = sampler.mode == "full_batch"
    f_i_star = obj.f_i_star

    loss_batch = np.full(steps, np.nan)
    gamma_arr = np.full(steps, np.nan)
    sigma_arr = np.full(steps, np.nan)
    grad_sq_arr = np.full(steps, np.nan)
    stationary = np.zeros(steps, dtype=bool)
    metric_steps: list[int] = []
    loss_full: list[float] = []
    dist_sq: list[float] = []
    grad_full_sq: list[float] = []
    iterates = np.empty((steps + 1, obj.dim)) if store_iterates else None

    x_mean = np.zeros(obj.dim)
    x_mean_w = np.zeros(obj.dim)
    weight_total = 0.0
    have_weights = True
    diverged = False
    diverged_step: Optional[int] = None

    # hoist hot-loop lookups
    full_eval = obj.full_eval
    batch_eval = obj.batch_eval
    x_star = obj.x_star
    policy_stepsize = policy.stepsize
    policy_sigma_at = policy.sigma_at
    needs_comp_min = policy.requires_component_min and f_i_star is not None
    isfinite = math.isfinite

    def probe(gamma: float) -> float:
        """Batch loss at x - gamma * grad for the loop's current x, grad and idx."""
        point = x - gamma * grad
        return (full_eval(point) if full_batch else batch_eval(idx, point))[0]

    def record_metrics(k: int, point: np.ndarray) -> None:
        fv, fg = full_eval(point)
        metric_steps.append(k)
        loss_full.append(fv)
        grad_full_sq.append(float(fg @ fg))
        if x_star is not None:
            diff = point - x_star
            dist_sq.append(float(diff @ diff))
        else:
            dist_sq.append(float("nan"))

    k = 0
    for k in range(steps):
        if iterates is not None:
            iterates[k] = x
        if cadence > 0 and k % cadence == 0:
            record_metrics(k, x)

        idx = indices[k]
        if full_batch:
            loss, grad = full_eval(x)
        else:
            loss, grad = batch_eval(idx, x)
        gsq = float(grad @ grad)

        loss_batch[k] = loss
        grad_sq_arr[k] = gsq
        if loss > DIVERGENCE_THRESHOLD or gsq > DIVERGENCE_THRESHOLD or not isfinite(loss):
            diverged = True
            diverged_step = k
            break

        comp_min = float(np.mean(f_i_star[idx])) if needs_comp_min else None
        obs = StepObservation(k=k, loss=loss if loss > 0.0 else 0.0,
                              grad_sq_norm=gsq, component_min=comp_min, probe=probe)
        try:
            gamma = policy_stepsize(obs)
        except Exception as exc:  # noqa: BLE001 - annotate with step index
            raise RunError(k, exc) from exc

        sigma_k = policy_sigma_at(k)
        sigma_arr[k] = sigma_k

        # running averages over x^0 .. x^{K-1}, before the update
        x_mean += (x - x_mean) / (k + 1)
        if have_weights and math.isfinite(sigma_k):
            weight_total += sigma_k
            x_mean_w += (sigma_k / weight_total) * (x - x_mean_w)
        else:
            have_weights = False

        if gamma is None:
            stationary[k] = True
            gamma_arr[k] = 0.0
            continue
        gamma_arr[k] = gamma
        x = x - gamma * grad
        # a non-finite coordinate makes the sum non-finite (inf-inf is nan)
        if not math.isfinite(float(x.sum())):
            diverged = True
            diverged_step = k
            break

    if iterates is not None and not diverged:
        iterates[steps] = x
    if not diverged and cadence > 0:
        record_metrics(steps, x)

    return RunTrace(
        steps=steps,
        x0=x_start,
        x_final=x,
        batch_ids=indices,
        loss_batch=loss_batch,
        gamma=gamma_arr,
        sigma=sigma_arr,
        grad_sq=grad_sq_arr,
        stationary=stationary,
        metric_steps=np.array(metric_steps, dtype=int),
        loss_full=np.array(loss_full),
        dist_sq=np.array(dist_sq),
        grad_full_sq=np.array(grad_full_sq),
        x_mean=x_mean,
        x_mean_weighted=x_mean_w if have_weights else None,
        diverged=diverged,
        diverged_step=diverged_step,
        iterates=iterates if not diverged else None,
        seed=seed,
    )


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


def _format_cell(value: float) -> str:
    # float() first: repr of a numpy scalar is "np.float64(...)" under numpy >= 2
    return "" if not math.isfinite(value) else repr(float(value))


def trace_to_csv(trace: RunTrace, path) -> None:
    """Write the per-step trace; off-cadence metric cells are empty."""
    metric_at = {int(s): i for i, s in enumerate(trace.metric_steps)}
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for k in range(trace.steps):
            if math.isnan(trace.loss_batch[k]) and trace.diverged and k > (trace.diverged_step or 0):
                break
            row = [
                str(k),
                ";".join(str(i) for i in trace.batch_ids[k]) if k < len(trace.batch_ids) else "",
                _format_cell(trace.loss_batch[k]),
                _format_cell(trace.gamma[k]),
                _format_cell(trace.sigma[k]),
                _format_cell(trace.grad_sq[k]),
            ]
            if k in metric_at:
                i = metric_at[k]
                row += [
                    _format_cell(trace.loss_full[i]),
                    _format_cell(trace.dist_sq[i]),
                    _format_cell(trace.grad_full_sq[i]),
                ]
            else:
                row += ["", "", ""]
            fh.write(",".join(row) + "\n")
