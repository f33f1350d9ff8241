"""Property and bound verification suites.

Each check produces CheckReport rows binding a measured quantity to the
exact bound computed by the theory module. Lemma checks are pointwise over
entire trajectories; theorem checks are Monte Carlo over seeds with the
acceptance rule: seed-mean <= RHS and at least 19 of 20 individual seeds
<= 1.5 * RHS.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import theory
from .objectives import (
    finite_difference_gradient,
    make_nonconvex_sum,
    make_quadratic1d,
    make_two_quadratics,
)
from .runner import Run, metrics, write_traces
from .specs import POLICIES, PROBLEMS, build, build_spec
from .stepsizes import StepObservation, stepsize_bounds

NOISE_SAFETY_MULTIPLIER = 2.0
SEED_SLACK_FACTOR = 1.5
SETTLE_STEPS = 10_000  # of check_never_diverge's NGN(100) run, whose tail must settle


@dataclass
class CheckReport:
    name: str
    params: dict = field(default_factory=dict)
    measured: float = float("nan")
    bound: float = float("nan")
    tolerance: float = 0.0
    passed: bool = False
    seed: int = 0

    def csv_row(self) -> str:
        """One report line; a cell holding a comma (a list param) is quoted."""
        params = ";".join(f"{k}={v}" for k, v in self.params.items())
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow([
            self.name, params, repr(float(self.measured)), repr(float(self.bound)),
            repr(float(self.tolerance)), "pass" if self.passed else "fail", self.seed,
        ])
        return buf.getvalue()


REPORT_HEADER = "check,params,measured,bound,tolerance,result,seed"


# Problem specs of the lemma checks, by the fixture name their reports carry
LEMMA_FIXTURES = {
    "quadratic1d": "quadratic1d(lam=1.2, fstar=0.1)",
    "two_quadratics": "two_quadratics()",
    "logistic": "logistic_blobs(seed=1)",
}


def _ngn(sigma):
    """NGN(sigma), sigma one value or one per row, built through the policy table."""
    return build(POLICIES, "ngn", sigma=sigma)


def _check_size(name: str, value: int) -> None:
    """ValueError unless a check's sample size is at least 1: no sample is no evidence."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_lemma_equality(trials: int = 10_000, seed: int = 0) -> CheckReport:
    """gamma * g^2 == 2 ((sigma - gamma)/sigma) * f, algebraic identity."""
    _check_size("trials", trials)
    rng = np.random.default_rng(seed)
    losses = 10.0 ** rng.uniform(-6, 2, trials)
    gsqs = 10.0 ** rng.uniform(-8, 4, trials)
    gsqs[rng.random(trials) < 0.01] = 0.0
    sigmas = 10.0 ** rng.uniform(-3, 3, trials)
    # one call for every trial: NGN reads each trial's sigma from the observation
    gamma = _ngn(1.0).stepsize(StepObservation(0, losses, gsqs, sigma=sigmas))
    lhs = gamma * gsqs
    rhs = 2.0 * ((sigmas - gamma) / sigmas) * losses
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, lhs)))
    return CheckReport(
        name="lemma_fundamental_equality",
        params={"trials": trials},
        measured=worst,
        bound=1e-10,
        tolerance=1e-10,
        passed=worst <= 1e-10,
        seed=seed,
    )


def check_lemma_bounds(
    problem: str = "quadratic1d", sigma: float = 1.0, steps: int = 1000, seed: int = 0
) -> CheckReport:
    """Every NGN stepsize taken, at least one, in [sigma/(1 + sigma L) - eps, sigma + eps]."""
    obj = build_spec(PROBLEMS, LEMMA_FIXTURES[problem])
    lo, hi = stepsize_bounds(sigma, obj.l_max)
    violation, n_taken = 0.0, 0
    for chunk in Run(obj, _ngn(sigma), steps, seeds=(seed,)):
        gammas = chunk.gamma[np.isfinite(chunk.gamma)]
        n_taken += gammas.size
        violation = max(violation, float(np.max(lo - gammas, initial=0.0)),
                        float(np.max(gammas - hi, initial=0.0)))
    return CheckReport(
        name="lemma_stepsize_bounds",
        params={"problem": problem, "sigma": sigma, "steps": steps},
        measured=violation,
        bound=1e-12,
        tolerance=1e-12,
        passed=n_taken > 0 and violation <= 1e-12,
        seed=seed,
    )


def check_lemma_inequality(
    problem: str = "two_quadratics",
    sigma_factors: Sequence[float] = (0.1, 0.5, 2.0),
    steps: int = 1000,
    seed: int = 0,
) -> list[CheckReport]:
    """Pointwise fundamental inequality at each step, at least one, of a stochastic NGN run
    at each sigma = factor / L: one run, a row of seed `seed` per sigma."""
    _check_size("len(sigma_factors)", len(sigma_factors))
    obj = build_spec(PROBLEMS, LEMMA_FIXTURES[problem])
    l_smooth = obj.l_max
    sigmas = [factor / l_smooth for factor in sigma_factors]
    second_term = [sigma > 1.0 / (2.0 * l_smooth) for sigma in sigmas]
    # (S, 1) columns: each row's coefficient, and its second-term weight, 0 where not needed
    coeff = np.array([[4.0 * s * l_smooth / (1.0 + 2.0 * s * l_smooth)] for s in sigmas])
    t2 = np.array([[theory.rate_terms(s, l_smooth)[2] if needed else 0.0]
                   for s, needed in zip(sigmas, second_term)])
    worst, n_taken = np.full(len(sigmas), -math.inf), np.zeros(len(sigmas), dtype=int)
    for chunk in Run(obj, _ngn(sigmas), steps, seeds=[seed] * len(sigmas)):
        rows = chunk.rows
        taken = np.isfinite(chunk.gamma)
        n_taken[rows] += taken.sum(axis=1)
        fstar = obj.f_i_star[chunk.batch_ids].mean(axis=2)
        lhs = chunk.gamma**2 * chunk.grad_sq
        rhs = (coeff[rows] * chunk.gamma * np.maximum(chunk.loss_batch - fstar, 0.0)
               + t2[rows] * fstar)
        excess = np.where(taken, (lhs - rhs) / np.maximum(lhs, 1.0), -math.inf)
        worst[rows] = np.maximum(worst[rows], excess.max(axis=1))
    return [CheckReport(
        name="lemma_fundamental_inequality",
        params={"problem": problem, "sigma": sigma, "steps": steps, "second_term": needed},
        measured=w,
        bound=1e-10,
        tolerance=1e-10,
        passed=n > 0 and w <= 1e-10,
        seed=seed,
    ) for sigma, needed, w, n in zip(sigmas, second_term, worst.tolist(), n_taken.tolist())]


def _monte_carlo_pass(per_seed: Sequence[float], rhs: float) -> bool:
    arr = np.asarray(per_seed)
    slack_ok = int(np.sum(arr <= SEED_SLACK_FACTOR * rhs)) >= len(arr) - 1
    return bool(np.mean(arr) <= rhs and slack_ok)


def _gaps(obj, X: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """f(X[r]) - f* at the kept rows in one full_many call, inf at the others."""
    gaps = np.full(len(X), math.inf)
    gaps[kept] = obj.full_many(X[kept])[0] - obj.f_star
    return gaps


def _two_quadratics_start(x0: float):
    """The two-quadratics fixture, its theory context, the start [x0] and ||x0 - x*||^2."""
    obj = make_two_quadratics()
    x0_vec = np.array([x0])
    dist0_sq = float((x0_vec - obj.x_star) @ (x0_vec - obj.x_star))
    return obj, theory.context_from_objective(obj), x0_vec, dist0_sq


def check_convex_rate(
    sigma: float = 0.05,
    steps: int = 100_000,
    n_seeds: int = 20,
    x0: float = 2.0,
) -> CheckReport:
    """E[f(xbar^K) - f*] on the two-quadratics fixture vs the convex bound."""
    obj, ctx, x0_vec, dist0_sq = _two_quadratics_start(x0)
    rhs = theory.convex_bound(ctx, sigma, steps, dist0_sq)
    rhs_proof = theory.convex_bound(ctx, sigma, steps, dist0_sq, constant="proof")
    run = Run(obj, _ngn(sigma), steps, seeds=range(n_seeds), x0=x0_vec, cadence=1)
    iterate_sum = np.zeros((n_seeds, obj.dim))  # of x^0 .. x^{K-1}, a chunk at a time
    for chunk in run:
        iterate_sum[chunk.rows] += chunk.iterates.sum(axis=1)
    per_seed = _gaps(obj, iterate_sum / steps, run.diverged_step < 0)
    measured = float(np.mean(per_seed))
    return CheckReport(
        name="theorem_convex_rate",
        params={"sigma": sigma, "steps": steps, "seeds": n_seeds,
                "delta_int": ctx.delta_int, "delta_pos": ctx.delta_pos,
                "rhs_proof_constant": rhs_proof},
        measured=measured,
        bound=rhs,
        passed=_monte_carlo_pass(per_seed, rhs),
    )


def check_deterministic_contraction(
    lam: float = 1.3,
    sigma_factors: Sequence[float] = (0.1, 1.0, 10.0),
    steps: int = 200,
) -> CheckReport:
    """Per-step distance contraction of deterministic NGN on N=1, f*=0, at each
    sigma = factor / lam: one run, a row per sigma."""
    _check_size("len(sigma_factors)", len(sigma_factors))
    obj = make_quadratic1d(lam, 1.0, 0.0)
    sigmas = [factor / lam for factor in sigma_factors]
    limit = np.array([[(1.0 - lam * theory.contraction_rho(sigma, lam)) + 1e-9]
                      for sigma in sigmas])  # each row's, a column
    run = Run(obj, _ngn(sigmas), steps, seeds=[0] * len(sigmas), x0=np.array([4.0]), cadence=1)
    worst = -math.inf
    before = np.full((len(sigmas), 1), np.nan)  # each row's last distance of the chunks done
    # each chunk's cadence points, then x^K, the final iterates
    for rows, points in itertools.chain(((c.rows, c.iterates) for c in run),
                                        [(slice(None), run.X[:, None])]):
        d = np.concatenate([before[rows], metrics(obj, points)[1]], axis=1)
        # below ~1e-9 the loss is at the numerical value floor and the
        # stepsize formula no longer reflects the analytic rule
        mask = d[:, :-1] > 1e-9
        ratios = np.divide(d[:, 1:], d[:, :-1], out=np.full(mask.shape, -math.inf), where=mask)
        worst = max(worst, float(np.max(ratios - limit[rows], initial=-math.inf)))
        before[rows] = d[:, -1:]
    if (run.diverged_step >= 0).any():
        worst = math.inf
    return CheckReport(
        name="theorem_strongly_convex_contraction",
        params={"lam": lam, "sigma_factors": list(sigma_factors), "steps": steps},
        measured=worst,
        bound=0.0,
        tolerance=1e-9,
        passed=worst <= 0.0,
    )


def check_strongly_convex_rate(
    sigma: float = 0.1,
    steps: int = 2000,
    n_seeds: int = 20,
    x0: float = 2.0,
) -> CheckReport:
    """E||x^k - x*||^2 vs geometric decay plus error floor at checkpoints K/4, K/2 and K."""
    if steps < 1 or steps % 4:  # the checkpoints lie on the cadence K/4
        raise ValueError(f"steps must be a positive multiple of 4, got {steps}")
    obj, ctx, x0_vec, dist0_sq = _two_quadratics_start(x0)
    cadence = steps // 4
    checkpoints = [steps // 4, steps // 2, steps]
    dist_sq = np.full((n_seeds, 5), math.inf)  # at k = 0, K/4, K/2, 3K/4 and K
    run = Run(obj, _ngn(sigma), steps, seeds=range(n_seeds), x0=x0_vec, cadence=cadence)
    for chunk in run:
        values = metrics(obj, chunk.iterates)[1]
        dist_sq[np.ix_(chunk.rows, chunk.metric_steps // cadence)] = values
    # at x^K, the final iterates; inf past the trace of a seed that diverged
    dist_sq[:, 4] = np.where(run.diverged_step < 0, metrics(obj, run.X[:, None])[1, :, 0],
                             math.inf)
    dist_sq[np.isnan(dist_sq)] = math.inf
    dists = {k: dist_sq[:, k // cadence] for k in checkpoints}
    worst_ratio = -math.inf
    ok = True
    for k in checkpoints:
        rhs = theory.strongly_convex_bound(ctx, sigma, k, dist0_sq)
        ok = ok and _monte_carlo_pass(dists[k], rhs)
        worst_ratio = max(worst_ratio, float(np.mean(dists[k])) / rhs)
    return CheckReport(
        name="theorem_strongly_convex_rate",
        params={"sigma": sigma, "steps": steps, "seeds": n_seeds},
        measured=worst_ratio,
        bound=1.0,
        passed=ok,
    )


# The noise bound's pilot: x^0, x^10, ..., x^2000 of seed 0
PILOT_STEPS = 2000
PILOT_EVERY = 10


def check_nonconvex_rate(
    n: int = 8,
    fixture_seed: int = 3,
    sigma: Optional[float] = None,
    steps: int = 100_000,
    n_seeds: int = 20,
) -> CheckReport:
    """Average squared full-gradient norm vs the nonconvex bound."""
    obj = make_nonconvex_sum(n, fixture_seed)
    l_smooth = obj.l_max
    sigma = sigma if sigma is not None else 1.0 / (2.0 * l_smooth)
    x0_vec = obj.x_star + 2.5
    f0_gap = float(obj.full_many(x0_vec[None])[0][0]) - obj.f_star

    # Seed 0 runs on to PILOT_STEPS when the other seeds stop before: the
    # pilot points of the noise bound are its own trajectory
    run = Run(obj, _ngn(sigma), [max(steps, PILOT_STEPS)] + [steps] * (n_seeds - 1),
              seeds=range(n_seeds), x0=x0_vec, cadence=1)
    grad_sq_sum = np.zeros(n_seeds)  # of ||grad f(x^k)||^2 over k < K, a chunk at a time
    pilot = []
    for chunk in run:
        if chunk.k0 < steps:  # the chunk's rows not diverged, up to step K
            ok = run.diverged_step[chunk.rows] < 0
            points = chunk.iterates[ok, :min(chunk.k1, steps) - chunk.k0]
            grads = obj.full_many(points.reshape(-1, obj.dim))[1]
            grad_sq_sum[chunk.rows[ok]] += (np.vecdot(grads, grads).reshape(len(points), -1)
                                            .sum(axis=1))
        if chunk.k0 <= PILOT_STEPS and chunk.rows[:1].tolist() == [0]:  # seed 0 still runs
            first = -(-chunk.k0 // PILOT_EVERY) * PILOT_EVERY - chunk.k0
            pilot += list(chunk.iterates[0, first:PILOT_STEPS + 1 - chunk.k0:PILOT_EVERY].copy())
    if run.diverged_step[0] >= 0:
        raise ValueError(f"seed 0 diverged at step {run.diverged_step[0]}; "
                         "the noise bound has no pilot trajectory")
    if run.steps == PILOT_STEPS:
        pilot.append(run.X[0])  # x^2000, the final iterate

    # noise bound: the pilot points plus perturbations, then a safety
    # multiplier (the empirical max is only a lower bound)
    rng = np.random.default_rng(fixture_seed)
    pilot += [x0_vec + rng.standard_normal(1) for _ in range(100)]
    noise_sq = NOISE_SAFETY_MULTIPLIER * theory.estimate_delta_noise_sq(obj, pilot)

    ctx = theory.TheoryContext(l_smooth=l_smooth, mu=0.0, delta_int=0.0, delta_pos=0.0,
                               delta_noise_sq=noise_sq)
    rhs = theory.nonconvex_bound(ctx, sigma, steps, f0_gap)
    per_seed = [math.inf if run.diverged_step[r] >= 0 else grad_sq_sum[r] / steps
                for r in range(n_seeds)]
    measured = float(np.mean(per_seed))
    return CheckReport(
        name="theorem_nonconvex_rate",
        params={"n": n, "sigma": sigma, "steps": steps, "seeds": n_seeds,
                "delta_noise_sq": noise_sq},
        measured=measured,
        bound=rhs,
        passed=_monte_carlo_pass(per_seed, rhs),
    )


def check_annealed_rate(
    steps_grid: Sequence[int] = (1000, 10_000, 100_000),
    sigma0: float = 1.0,
    n_seeds: int = 20,
    x0: float = 2.0,
) -> list[CheckReport]:
    """Weighted-average suboptimality under sigma_k = sigma0/sqrt(k+1)."""
    obj, ctx, x0_vec, dist0_sq = _two_quadratics_start(x0)
    # one run to the largest K; the weighted average of each K is a prefix's
    policy = build(POLICIES, "ngn", sigma=sigma0, schedule="inv_sqrt")
    run = Run(obj, policy, max(steps_grid), seeds=range(n_seeds), x0=x0_vec, cadence=1)
    # sums of sigma_k x^k and of sigma_k over the chunks done
    weighted, weights = np.zeros((n_seeds, obj.dim)), 0.0
    per_seed_at = {}
    for chunk in run:
        terms = chunk.sigma[:, :, None] * chunk.iterates
        sigma = chunk.sigma[:1]  # (1, k1 - k0): the rows share one sigma_k
        for steps in steps_grid:
            if chunk.k0 < steps <= chunk.k1:
                m = steps - chunk.k0
                average = weighted.copy()  # a row not in the chunk diverged: not kept
                average[chunk.rows] += terms[:, :m].sum(axis=1)
                kept = ~((0 <= run.diverged_step) & (run.diverged_step < steps))
                per_seed_at[steps] = _gaps(obj, average / (weights + sigma[:, :m].sum()), kept)
        weighted[chunk.rows] += terms.sum(axis=1)
        weights += sigma.sum()
    reports = []
    means = []
    for steps in steps_grid:
        rhs = theory.annealed_bound(ctx, sigma0, steps, dist0_sq)
        per_seed = per_seed_at[steps]
        mean = float(np.mean(per_seed))
        means.append(mean)
        reports.append(CheckReport(
            name="theorem_annealed_rate",
            params={"sigma0": sigma0, "steps": steps, "seeds": n_seeds},
            measured=mean,
            bound=rhs,
            passed=_monte_carlo_pass(per_seed, rhs),
        ))
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    reports.append(CheckReport(
        name="theorem_annealed_rate_decreasing",
        params={"steps_grid": list(steps_grid)},
        measured=max(b / a for a, b in zip(means, means[1:])) if len(means) > 1 else 0.0,
        bound=1.0,
        passed=decreasing,
    ))
    return reports


def check_never_diverge(
    sigma_grid: Sequence[float] = (0.1, 1.0, 10.0, 100.0, 1e4),
    x0: float = 3.0,
    steps: int = 500,
) -> list[CheckReport]:
    """NGN stays bounded on the 1-d quadratic at each sigma, a row of one run; GD does not."""
    _check_size("len(sigma_grid)", len(sigma_grid))
    lam, f_star = 1.2, 0.1
    obj = make_quadratic1d(lam, 0.0, f_star)
    x0_vec = np.array([x0])
    envelope = 10.0 * abs(x0)

    run = Run(obj, _ngn(sigma_grid), steps, seeds=[0] * len(sigma_grid), x0=x0_vec, cadence=1)
    sup = np.zeros(len(sigma_grid))  # of each row's |x^k| over x^0 .. x^K
    for chunk in run:
        sup[chunk.rows] = np.maximum(sup[chunk.rows], np.abs(chunk.iterates).max(axis=(1, 2)))
    diverged = run.diverged_step >= 0
    sup = np.where(diverged, math.inf, np.maximum(sup, np.abs(run.X).max(axis=1)))
    reports = [CheckReport(
        name="fig2_ngn_bounded",
        params={"sigma": sigma, "x0": x0},
        measured=s,
        bound=envelope,
        passed=not bad and s <= envelope,
    ) for sigma, s, bad in zip(sigma_grid, sup.tolist(), diverged.tolist())]

    # GD at gamma = 2 > 2/lambda to step 100 and at gamma = 1 to step 500, a row each;
    # write_traces returns each row's final values, NaN for a row that diverged
    gd = Run(obj, build(POLICIES, "constant", gamma=[2.0, 1.0]), [100, 500], seeds=[0, 0],
             x0=x0_vec, cadence=500)
    final = write_traces(gd, [])[1, 0]  # the loss at gamma = 1's x^K
    diverged_at = int(gd.diverged_step[0])
    reports.append(CheckReport(
        name="fig2_gd_unstable_diverges",
        params={"gamma": 2.0, "threshold": 2.0 / lam},
        measured=float(diverged_at) if diverged_at >= 0 else math.inf,
        bound=100.0,
        # a run stopped at step 0 diverged before its first step, at its start
        passed=diverged_at >= 1,
    ))
    reports.append(CheckReport(
        name="fig2_gd_stable_converges",
        params={"gamma": 1.0},
        measured=math.inf if math.isnan(final) else float(final),
        bound=f_star + 1e-6,
        passed=bool(final <= f_star + 1e-6),
    ))

    # the stepsize cycle damps slowly at large sigma; a longer horizon is
    # needed before the tail settles
    run = Run(obj, _ngn(100.0), SETTLE_STEPS, x0=x0_vec)
    tail = np.empty(0)  # the last 100 stepsizes of the chunks done
    for chunk in run:
        tail = np.concatenate([tail, *chunk.gamma])[-100:]
    if run.diverged_step[0] >= 0:
        center = spread = math.inf
    else:
        center = float(np.mean(tail))
        spread = float(np.max(np.abs(tail - center))) / center
    limit = 2.0 / lam
    reports.append(CheckReport(
        name="fig2_stepsize_settles_below_2_over_lambda",
        params={"sigma": 100.0, "tail": 100, "limit": limit, "spread": spread},
        measured=center,
        bound=limit,
        tolerance=0.05,
        passed=spread <= 0.05 and abs(center - limit) <= 0.05 * limit,
    ))
    return reports


def check_logistic_large_sigma(
    sigma: float = 30.0, steps: int = 10_000, seed: int = 0
) -> CheckReport:
    """Large-sigma NGN on a 3-class logistic problem keeps all metrics finite."""
    obj = build_spec(PROBLEMS, "logistic_blobs(seed=7)")
    run = Run(obj, _ngn(sigma), steps, seeds=(seed,), cadence=100)
    finite = True
    for chunk in run:
        loss_full = metrics(obj, chunk.iterates)[0]
        finite &= all(np.isfinite(a).all() for a in (chunk.loss_batch, chunk.gamma, loss_full))
    final = metrics(obj, run.X[:, None])[0, 0, 0]  # the loss at x^K, the final iterate
    finite = finite and run.diverged_step[0] < 0 and math.isfinite(final)
    return CheckReport(
        name="logistic_large_sigma_stable",
        params={"sigma": sigma, "steps": steps},
        measured=float(final) if finite else math.inf,
        bound=math.inf,
        passed=bool(finite),
        seed=seed,
    )


GRADIENT_FIXTURES = (
    "quadratic1d(lam=2.0, xstar=0.5, fstar=0.3)",
    "two_quadratics()",
    "linear_regression(d=5, n=12, seed=0, noise_std=0.1)",
    "logistic_blobs(seed=1)",
    "nonconvex_sum(n=6, seed=2)",
)


def check_gradients(points_per_family: int = 100, seed: int = 0) -> CheckReport:
    """Analytic vs central-difference gradients across every family."""
    _check_size("points_per_family", points_per_family)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for spec in GRADIENT_FIXTURES:
        obj = build_spec(PROBLEMS, spec)
        points = np.empty((points_per_family, obj.dim))
        idx = np.empty(points_per_family, dtype=int)
        for p in range(points_per_family):  # a point, then its component, from the one stream
            points[p], idx[p] = rng.standard_normal(obj.dim), rng.integers(obj.n)
        analytic = obj.eval_many(idx[:, None], points)[1]
        for fd, grad in zip(finite_difference_gradient(obj, idx, points), analytic):
            worst = max(worst, float(np.linalg.norm(fd - grad))
                        / max(1.0, float(np.linalg.norm(grad))))
    return CheckReport(
        name="gradient_oracle_agreement",
        params={"points_per_family": points_per_family},
        measured=worst,
        bound=1e-5,
        tolerance=1e-5,
        passed=worst <= 1e-5,
        seed=seed,
    )


def _trials(trials: int, seed: int) -> np.ndarray:
    """(3, trials) losses, squared gradient norms and sigmas, 10^u for u uniform in
    [-6, 2], [-8, 4] and [-2, 2], drawn a trial at a time in that order.

    The powers are Python floats, since numpy's `10.0 ** array` need not
    round as Python's pow does and the measured values must not move.
    """
    _check_size("trials", trials)
    exponents = np.random.default_rng(seed).uniform([-6, -8, -2], [2, 4, 2], size=(trials, 3))
    return np.array([10.0 ** e for e in exponents.ravel().tolist()]).reshape(-1, 3).T


def check_ggn_reductions(trials: int = 10_000, seed: int = 0) -> CheckReport:
    """monomial(p=2) == quadratic == NGN; neg_log matches its closed form."""
    loss, gsq, sigma = _trials(trials, seed)
    # one call for every trial: the policies read each trial's sigma from the observation
    obs = StepObservation(0, loss, gsq, sigma=sigma)
    base = _ngn(1.0).stepsize(obs)
    quad, mono, nlog = (build(POLICIES, "ggn", sigma=1.0, h=h, p=2.0).stepsize(obs)
                        for h in ("quadratic", "monomial", "neg_log"))
    worst = float(max(
        np.max(np.abs(quad - base) / base),
        np.max(np.abs(mono - base) / base),
        np.max(np.abs(nlog - sigma / (1.0 + sigma * gsq)) / nlog),
    ))
    return CheckReport(
        name="ggn_reductions",
        params={"trials": trials},
        measured=worst,
        bound=1e-12,
        tolerance=1e-12,
        passed=worst <= 1e-12,
        seed=seed,
    )


def check_baseline_sanity(trials: int = 10_000, seed: int = 0) -> CheckReport:
    """AdaGrad-norm monotone, SPS cap, NGN harmonic-mean identity."""
    loss, gsq, sigma = _trials(trials, seed)
    # AdaGrad's accumulator takes one trial at a time; SPS and NGN take every trial in one call
    adagrad = build(POLICIES, "adagrad_norm", eta=1.5, delta0=0.01)
    step, g_ada = StepObservation(0, 0.0, 0.0), []  # step is refreshed in place
    for step.k, step.grad_sq_norm in enumerate(gsq.tolist()):
        g_ada.append(adagrad.stepsize(step))
    obs = StepObservation(0, loss, gsq, component_min=0.0, sigma=sigma)
    sps = build(POLICIES, "sps_max", c=1.0, gamma_b=3.0)
    ngn = _ngn(1.0).stepsize(obs)
    harmonic = 2.0 / (2.0 / sigma + gsq / loss)
    worst = float(max(0.0, np.max(np.diff(g_ada), initial=-math.inf),
                      np.max(sps.stepsize(obs) - sps.gamma_b),
                      np.max(np.abs(ngn - harmonic) / ngn - 1e-12)))
    return CheckReport(
        name="baseline_sanity",
        params={"trials": trials},
        measured=worst,
        bound=0.0,
        tolerance=1e-12,
        passed=worst <= 0.0,
        seed=seed,
    )


def suite_lemmas() -> list[CheckReport]:
    reports = [check_lemma_equality()]
    for problem in ("quadratic1d", "logistic"):
        reports.append(check_lemma_bounds(problem=problem))
    for problem in ("two_quadratics", "quadratic1d"):
        reports += check_lemma_inequality(problem=problem)
    return reports


def suite_stability() -> list[CheckReport]:
    return check_never_diverge() + [check_logistic_large_sigma()]


def suite_gradients() -> list[CheckReport]:
    return [check_gradients()]


def suite_baselines() -> list[CheckReport]:
    return [check_ggn_reductions(), check_baseline_sanity()]


def suite_rates() -> list[CheckReport]:
    return [
        check_convex_rate(),
        check_deterministic_contraction(),
        check_strongly_convex_rate(),
        check_nonconvex_rate(),
        *check_annealed_rate(),
    ]


SUITES = {
    "lemmas": suite_lemmas,
    "stability": suite_stability,
    "gradients": suite_gradients,
    "baselines": suite_baselines,
    "rates": suite_rates,
}


def select_suites(names: Sequence[str]) -> list[Callable[[], list[CheckReport]]]:
    """The named suites in order, 'all' for every suite; ValueError for an unknown name."""
    unknown = [name for name in names if name != "all" and name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; known: {sorted(SUITES)} or 'all'")
    return [fn for name in names for fn in (SUITES.values() if name == "all" else [SUITES[name]])]
