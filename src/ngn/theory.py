"""Exact constants and right-hand sides of the convergence guarantees.

All evaluators are pure functions of problem constants; the verification
module compares measured quantities against these values, never against
hard-coded numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .objectives import FiniteSumObjective, _by_row_blocks, compute_deltas


@dataclass(frozen=True)
class TheoryContext:
    l_smooth: float
    mu: float
    delta_int: float
    delta_pos: float
    delta_noise_sq: float = 0.0

    def __post_init__(self):
        if not 0 < self.l_smooth < math.inf:
            raise ValueError("L must be positive and finite")
        if not 0 <= self.mu <= self.l_smooth:
            raise ValueError("need 0 <= mu <= L")
        if not all(0 <= gap < math.inf
                   for gap in (self.delta_int, self.delta_pos, self.delta_noise_sq)):
            raise ValueError("gap terms must be nonnegative and finite")


def context_from_objective(obj: FiniteSumObjective, delta_noise_sq: float = 0.0) -> TheoryContext:
    if obj.l_max is None:
        raise ValueError("objective has no certified smoothness constant")
    delta_int, delta_pos = compute_deltas(obj)
    return TheoryContext(
        l_smooth=obj.l_max,
        mu=obj.mu or 0.0,
        delta_int=delta_int,
        delta_pos=delta_pos,
        delta_noise_sq=delta_noise_sq,
    )


def rate_terms(sigma: float, l_smooth: float) -> tuple[float, float, float]:
    """Per-step error expansion terms (T0, T1, T2)."""
    if not (0 < sigma < math.inf and 0 < l_smooth < math.inf):
        raise ValueError("sigma and L must be positive and finite")
    sl = sigma * l_smooth
    t0 = 2.0 * sigma / ((1.0 + 2.0 * sl) * (1.0 + sl))
    t1 = 6.0 * l_smooth * sigma**2 / (1.0 + 2.0 * sl)
    t2 = (2.0 * sigma**2 * l_smooth / (1.0 + sl)) * max(0.0, (2.0 * sl - 1.0) / (2.0 * sl + 1.0))
    return t0, t1, t2


def contraction_rho(sigma: float, l_smooth: float) -> float:
    """rho = sigma / ((1 + 2 sigma L)(1 + sigma L)); equals T0 / 2."""
    return rate_terms(sigma, l_smooth)[0] / 2.0


def convex_bound(
    ctx: TheoryContext,
    sigma: float,
    steps: int,
    dist0_sq: float,
    constant: str = "stated",
) -> float:
    """Suboptimality bound for the uniformly averaged iterate, fixed sigma.

    `constant` selects the leading coefficient: "stated" uses
    eta = 2 sigma / (1 + 2 sigma L)^2; "proof" uses the slightly tighter
    2 sigma / ((1 + 2 sigma L)(1 + sigma L)) that the derivation yields.
    """
    if not (0 < sigma < math.inf and 1 <= steps < math.inf and 0 <= dist0_sq < math.inf):
        raise ValueError("need finite sigma > 0, steps >= 1, dist0_sq >= 0")
    sl = sigma * ctx.l_smooth
    if constant == "stated":
        eta = 2.0 * sigma / (1.0 + 2.0 * sl) ** 2
    elif constant == "proof":
        eta = 2.0 * sigma / ((1.0 + 2.0 * sl) * (1.0 + sl))
    else:
        raise ValueError(f"unknown constant variant {constant!r}")
    return (
        dist0_sq / (eta * steps)
        + 3.0 * sl * (1.0 + sl) * ctx.delta_int
        + sl * max(0.0, 2.0 * sl - 1.0) * ctx.delta_pos
    )


def strongly_convex_bound(ctx: TheoryContext, sigma: float, k: int, dist0_sq: float) -> float:
    """Squared-distance bound after k steps under mu-strong convexity."""
    if ctx.mu <= 0:
        raise ValueError("requires strong convexity (mu > 0)")
    if not (0 < sigma < math.inf and 0 <= k < math.inf and 0 <= dist0_sq < math.inf):
        raise ValueError("need finite sigma > 0, k >= 0, dist0_sq >= 0")
    sl = sigma * ctx.l_smooth
    # mu <= L and L*rho <= 3 - 2 sqrt(2) ~ 0.172, so the base 1 - mu*rho is in (0.82, 1]
    rho = contraction_rho(sigma, ctx.l_smooth)
    return (
        (1.0 - ctx.mu * rho) ** k * dist0_sq
        + (6.0 * ctx.l_smooth / ctx.mu) * sigma * (1.0 + sl) * ctx.delta_int
        + (2.0 * sl / ctx.mu) * max(0.0, 2.0 * sl - 1.0) * ctx.delta_pos
    )


def nonconvex_bound(ctx: TheoryContext, sigma: float, steps: int, f0_gap: float) -> float:
    """Bound on the average squared full-gradient norm, sigma <= 1/(2L)."""
    if sigma > 1.0 / (2.0 * ctx.l_smooth) + 1e-15:
        raise ValueError("theorem precondition violated: sigma > 1/(2L)")
    if not (0 < sigma < math.inf and 1 <= steps < math.inf and 0 <= f0_gap < math.inf):
        raise ValueError("need finite sigma > 0, steps >= 1, f0_gap >= 0")
    return 12.0 * f0_gap / (sigma * steps) + 18.0 * sigma * ctx.l_smooth * ctx.delta_noise_sq


def annealed_constants(ctx: TheoryContext, sigma0: float) -> tuple[float, float]:
    if not 0 < sigma0 < math.inf:
        raise ValueError("sigma0 must be positive and finite")
    sl = sigma0 * ctx.l_smooth
    c1 = (1.0 + 2.0 * sl) * (1.0 + sl) / (4.0 * sigma0)
    c2 = (6.0 * ctx.delta_int + 2.0 * max(0.0, 2.0 * sl - 1.0) * ctx.delta_pos) \
        * ctx.l_smooth * sigma0**2
    return c1, c2


def annealed_bound(ctx: TheoryContext, sigma0: float, steps: int, dist0_sq: float) -> float:
    """Bound for the sigma_k-weighted average with sigma_k = sigma0/sqrt(k+1)."""
    if steps < 2:
        raise ValueError("annealed bound requires K >= 2")
    if not 0 <= dist0_sq < math.inf:
        raise ValueError("dist0_sq must be nonnegative and finite")
    c1, c2 = annealed_constants(ctx, sigma0)  # checks sigma0
    denom = math.sqrt(steps) - 1.0
    return c1 * dist0_sq / denom + c1 * c2 * math.log(steps + 1) / denom


def estimate_delta_noise_sq(
    obj: FiniteSumObjective, sample_points: Sequence[np.ndarray]
) -> float:
    """Empirical max over points of the exact per-point gradient variance.

    A lower bound on the true sup over R^d; callers apply a safety multiplier
    before using it in bound checks.
    """
    if len(sample_points) < 1:
        raise ValueError("need at least one sample point")
    points = np.asarray(sample_points, dtype=float)
    n = obj.n

    def variances(pts: np.ndarray) -> tuple[np.ndarray]:
        # sum_i ||grad f_i(x) - grad f(x)||^2 at each point x, added in component
        # order; one row per (point, component) pair
        comps = np.tile(np.arange(n), len(pts))[:, None]
        grads = obj.eval_many(comps, np.repeat(pts, n, axis=0))[1]
        diff = grads.reshape(len(pts), n, -1) - obj.full_many(pts)[1][:, None]
        return (np.add.accumulate(np.vecdot(diff, diff), axis=1)[:, -1],)

    var, = _by_row_blocks(variances, n * obj.dim, points)  # a point takes n x d entries
    return float(np.max(var / n, initial=0.0))
