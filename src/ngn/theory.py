"""Exact constants and right-hand sides of the convergence guarantees.

All evaluators are pure functions of problem constants; the verification
module compares measured quantities against these values, never against
hard-coded numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .objectives import FiniteSumObjective, compute_deltas


@dataclass(frozen=True)
class TheoryContext:
    l_smooth: float
    mu: float
    delta_int: float
    delta_pos: float
    delta_noise_sq: float = 0.0
    x_star: Optional[np.ndarray] = None
    f_star: float = 0.0

    def __post_init__(self):
        if self.l_smooth <= 0:
            raise ValueError("L must be positive")
        if self.mu < 0 or self.mu > self.l_smooth:
            raise ValueError("need 0 <= mu <= L")
        if min(self.delta_int, self.delta_pos, self.delta_noise_sq) < 0:
            raise ValueError("gap terms must be nonnegative")


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
        x_star=obj.x_star,
        f_star=obj.f_star if obj.f_star is not None else 0.0,
    )


def rate_terms(sigma: float, l_smooth: float) -> tuple[float, float, float]:
    """Per-step error expansion terms (T0, T1, T2)."""
    if sigma <= 0 or l_smooth <= 0:
        raise ValueError("sigma and L must be positive")
    sl = sigma * l_smooth
    t0 = 2.0 * sigma / ((1.0 + 2.0 * sl) * (1.0 + sl))
    t1 = 6.0 * l_smooth * sigma**2 / (1.0 + 2.0 * sl)
    t2 = (2.0 * sigma**2 * l_smooth / (1.0 + sl)) * max(0.0, (2.0 * sl - 1.0) / (2.0 * sl + 1.0))
    return t0, t1, t2


def contraction_rho(sigma: float, l_smooth: float) -> float:
    """rho = sigma / ((1 + 2 sigma L)(1 + sigma L)); equals T0 / 2."""
    sl = sigma * l_smooth
    return sigma / ((1.0 + 2.0 * sl) * (1.0 + sl))


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
    if sigma <= 0 or steps < 1 or dist0_sq < 0:
        raise ValueError("need sigma > 0, steps >= 1, dist0_sq >= 0")
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
    if sigma <= 0 or k < 0 or dist0_sq < 0:
        raise ValueError("need sigma > 0, k >= 0, dist0_sq >= 0")
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
    if sigma <= 0 or steps < 1 or f0_gap < 0:
        raise ValueError("need sigma > 0, steps >= 1, f0_gap >= 0")
    return 12.0 * f0_gap / (sigma * steps) + 18.0 * sigma * ctx.l_smooth * ctx.delta_noise_sq


def annealed_constants(ctx: TheoryContext, sigma0: float) -> tuple[float, float]:
    sl = sigma0 * ctx.l_smooth
    c1 = (1.0 + 2.0 * sl) * (1.0 + sl) / (4.0 * sigma0)
    c2 = (6.0 * ctx.delta_int + 2.0 * max(0.0, 2.0 * sl - 1.0) * ctx.delta_pos) \
        * ctx.l_smooth * sigma0**2
    return c1, c2


def annealed_bound(ctx: TheoryContext, sigma0: float, steps: int, dist0_sq: float) -> float:
    """Bound for the sigma_k-weighted average with sigma_k = sigma0/sqrt(k+1)."""
    if steps < 2:
        raise ValueError("annealed bound requires K >= 2")
    if sigma0 <= 0 or dist0_sq < 0:
        raise ValueError("need sigma0 > 0, dist0_sq >= 0")
    c1, c2 = annealed_constants(ctx, sigma0)
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
    full_grad = obj.full_many(points)[1]
    var = np.zeros(len(points))
    for i in range(obj.n):
        diff = obj.eval_many(np.full((len(points), 1), i), points)[1] - full_grad
        var += np.vecdot(diff, diff)
    return float(np.max(var / obj.n, initial=0.0))
