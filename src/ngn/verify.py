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
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import theory
from .objectives import (
    finite_difference_gradient,
    make_nonconvex_sum,
    make_quadratic1d,
    make_two_quadratics,
)
from .runner import Run, whole_traces
from .specs import PROBLEMS, build_spec
from .stepsizes import (
    GGN,
    NGN,
    AdaGradNorm,
    Constant,
    NGNAnnealed,
    SPSMax,
    StepObservation,
    stepsize_bounds,
)

NOISE_SAFETY_MULTIPLIER = 2.0
SEED_SLACK_FACTOR = 1.5


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
    worst = 0.0
    for loss, gsq, sigma in zip(losses, gsqs, sigmas):
        gamma = NGN(sigma).stepsize(StepObservation(0, loss, gsq))
        lhs = gamma * gsq
        rhs = 2.0 * ((sigma - gamma) / sigma) * loss
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
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
    (trace,) = whole_traces(Run(obj, NGN(sigma), steps, seeds=(seed,)))
    lo, hi = stepsize_bounds(sigma, obj.l_max)
    gammas = trace.gamma[~trace.stationary & np.isfinite(trace.gamma)]
    violation = max(float(np.max(lo - gammas, initial=0.0)),
                    float(np.max(gammas - hi, initial=0.0)))
    return CheckReport(
        name="lemma_stepsize_bounds",
        params={"problem": problem, "sigma": sigma, "steps": steps},
        measured=violation,
        bound=1e-12,
        tolerance=1e-12,
        passed=bool(gammas.size) and violation <= 1e-12,
        seed=seed,
    )


def check_lemma_inequality(
    problem: str = "two_quadratics",
    sigma: float = 1.0,
    steps: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Pointwise fundamental inequality at each step, at least one, of a stochastic NGN run."""
    obj = build_spec(PROBLEMS, LEMMA_FIXTURES[problem])
    (trace,) = whole_traces(Run(obj, NGN(sigma), steps, seeds=(seed,)))
    l_smooth = obj.l_max
    _, _, t2 = theory.rate_terms(sigma, l_smooth)
    coeff = 4.0 * sigma * l_smooth / (1.0 + 2.0 * sigma * l_smooth)
    second_term_needed = sigma > 1.0 / (2.0 * l_smooth)
    taken = np.isfinite(trace.gamma) & ~trace.stationary
    gamma = trace.gamma[taken]
    fstar = obj.f_i_star[trace.batch_ids[taken]].mean(axis=1)
    lhs = gamma**2 * trace.grad_sq[taken]
    rhs = coeff * gamma * np.maximum(trace.loss_batch[taken] - fstar, 0.0)
    if second_term_needed:
        rhs += t2 * fstar
    worst = float(np.max((lhs - rhs) / np.maximum(lhs, 1.0), initial=-math.inf))
    return CheckReport(
        name="lemma_fundamental_inequality",
        params={"problem": problem, "sigma": sigma, "steps": steps,
                "second_term": second_term_needed},
        measured=worst,
        bound=1e-10,
        tolerance=1e-10,
        passed=bool(gamma.size) and worst <= 1e-10,
        seed=seed,
    )


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
    run = Run(obj, NGN(sigma), steps, seeds=range(n_seeds), x0=x0_vec, store_iterates=True)
    iterate_sum = np.zeros((n_seeds, obj.dim))  # of x^0 .. x^{K-1}, a chunk at a time
    for chunk in run:
        iterate_sum += chunk.iterates.sum(axis=1)
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
    """Per-step distance contraction of deterministic NGN on N=1, f*=0."""
    _check_size("len(sigma_factors)", len(sigma_factors))
    obj = make_quadratic1d(lam, 1.0, 0.0)
    ctx = theory.context_from_objective(obj)
    worst = -math.inf
    for factor in sigma_factors:
        sigma = factor / lam
        rho = theory.contraction_rho(sigma, lam)
        limit = (1.0 - lam * rho) + 1e-9
        (trace,) = whole_traces(Run(obj, NGN(sigma), steps, x0=np.array([4.0]), cadence=1))
        d = trace.dist_sq
        # below ~1e-9 the loss is at the numerical value floor and the
        # stepsize formula no longer reflects the analytic rule
        mask = d[:-1] > 1e-9
        ratios = d[1:][mask] / d[:-1][mask]
        worst = max(worst, float(np.max(ratios - limit)))
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
    traces = whole_traces(Run(obj, NGN(sigma), steps, seeds=range(n_seeds), x0=x0_vec,
                              cadence=cadence))
    at = [dict(zip(t.metric_steps.tolist(), t.dist_sq)) for t in traces]
    dists = {k: [seed_at[k] for seed_at in at] for k in checkpoints}
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
    run = Run(obj, NGN(sigma), [max(steps, PILOT_STEPS)] + [steps] * (n_seeds - 1),
              seeds=range(n_seeds), x0=x0_vec, store_iterates=True)
    grad_sq_sum = np.zeros(n_seeds)  # of ||grad f(x^k)||^2 over k < K, a chunk at a time
    pilot = []
    for chunk in run:
        if chunk.k0 < steps:  # the rows not diverged, up to step K
            ok = run.diverged_step < 0
            points = chunk.iterates[ok, :min(chunk.k1, steps) - chunk.k0]
            grads = obj.full_many(points.reshape(-1, obj.dim))[1]
            grad_sq_sum[ok] += np.vecdot(grads, grads).reshape(len(points), -1).sum(axis=1)
        if chunk.k0 <= PILOT_STEPS:
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
    run = Run(obj, NGNAnnealed(sigma0), max(steps_grid), seeds=range(n_seeds), x0=x0_vec,
              store_iterates=True)
    # sums of sigma_k x^k and of sigma_k over the chunks done
    weighted, weights = np.zeros((n_seeds, obj.dim)), 0.0
    per_seed_at = {}
    for chunk in run:
        terms = chunk.sigma[:, None] * chunk.iterates
        for steps in steps_grid:
            if chunk.k0 < steps <= chunk.k1:
                m = steps - chunk.k0
                average = ((weighted + terms[:, :m].sum(axis=1))
                           / (weights + chunk.sigma[:m].sum()))
                kept = ~((0 <= run.diverged_step) & (run.diverged_step < steps))
                per_seed_at[steps] = _gaps(obj, average, kept)
        weighted += terms.sum(axis=1)
        weights += chunk.sigma.sum()
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
    """NGN stays bounded on the 1-d quadratic for every sigma; GD does not."""
    lam, f_star = 1.2, 0.1
    obj = make_quadratic1d(lam, 0.0, f_star)
    x0_vec = np.array([x0])
    envelope = 10.0 * abs(x0)
    reports = []

    for sigma in sigma_grid:
        (trace,) = whole_traces(Run(obj, NGN(sigma), steps, x0=x0_vec, store_iterates=True))
        sup = math.inf if trace.diverged else float(np.max(np.abs(trace.iterates)))
        reports.append(CheckReport(
            name="fig2_ngn_bounded",
            params={"sigma": sigma, "x0": x0},
            measured=sup,
            bound=envelope,
            passed=not trace.diverged and sup <= envelope,
        ))

    (gd_bad,) = whole_traces(Run(obj, Constant(2.0), 100, x0=x0_vec))
    reports.append(CheckReport(
        name="fig2_gd_unstable_diverges",
        params={"gamma": 2.0, "threshold": 2.0 / lam},
        measured=float(gd_bad.diverged_step if gd_bad.diverged else math.inf),
        bound=100.0,
        passed=gd_bad.diverged,
    ))

    (gd_ok,) = whole_traces(Run(obj, Constant(1.0), 500, x0=x0_vec, cadence=500))
    reports.append(CheckReport(
        name="fig2_gd_stable_converges",
        params={"gamma": 1.0},
        measured=float(gd_ok.loss_full[-1]) if not gd_ok.diverged else math.inf,
        bound=f_star + 1e-6,
        passed=not gd_ok.diverged and gd_ok.loss_full[-1] <= f_star + 1e-6,
    ))

    # the stepsize cycle damps slowly at large sigma; a longer horizon is
    # needed before the tail settles
    tail = whole_traces(Run(obj, NGN(100.0), 10_000, x0=x0_vec))[0].gamma[-100:]
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
    (trace,) = whole_traces(Run(obj, NGN(sigma), steps, seeds=(seed,), cadence=100))
    finite = (
        not trace.diverged
        and np.all(np.isfinite(trace.loss_batch))
        and np.all(np.isfinite(trace.gamma))
        and np.all(np.isfinite(trace.loss_full))
        and np.all(np.isfinite(trace.x_final))
    )
    return CheckReport(
        name="logistic_large_sigma_stable",
        params={"sigma": sigma, "steps": steps},
        measured=float(trace.loss_full[-1]) if finite else math.inf,
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


def check_ggn_reductions(trials: int = 10_000, seed: int = 0) -> CheckReport:
    """monomial(p=2) == quadratic == NGN; neg_log matches its closed form."""
    _check_size("trials", trials)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        loss = 10.0 ** rng.uniform(-6, 2)
        gsq = 10.0 ** rng.uniform(-8, 4)
        sigma = 10.0 ** rng.uniform(-2, 2)
        obs = StepObservation(0, loss, gsq)
        base = NGN(sigma).stepsize(obs)
        quad = GGN(sigma, "quadratic").stepsize(obs)
        mono = GGN(sigma, "monomial", p=2.0).stepsize(obs)
        nlog = GGN(sigma, "neg_log").stepsize(obs)
        worst = max(
            worst,
            abs(quad - base) / base,
            abs(mono - base) / base,
            abs(nlog - sigma / (1.0 + sigma * gsq)) / nlog,
        )
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
    _check_size("trials", trials)
    rng = np.random.default_rng(seed)
    adagrad = AdaGradNorm(eta=1.5, delta0=0.01)
    sps = SPSMax(c=1.0, gamma_b=3.0)
    worst = 0.0
    prev = math.inf
    for k in range(trials):
        loss = 10.0 ** rng.uniform(-6, 2)
        gsq = 10.0 ** rng.uniform(-8, 4)
        sigma = 10.0 ** rng.uniform(-2, 2)
        obs = StepObservation(k, loss, gsq, component_min=0.0)
        g_ada = adagrad.stepsize(obs)
        worst = max(worst, g_ada - prev)
        prev = g_ada
        worst = max(worst, sps.stepsize(obs) - sps.gamma_b)
        harmonic = 2.0 / (2.0 / sigma + gsq / loss)
        ngn = NGN(sigma).stepsize(obs)
        worst = max(worst, abs(ngn - harmonic) / ngn - 1e-12)
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
        l_smooth = build_spec(PROBLEMS, LEMMA_FIXTURES[problem]).l_max
        for sigma in (0.1 / l_smooth, 0.5 / l_smooth, 2.0 / l_smooth):
            reports.append(check_lemma_inequality(problem=problem, sigma=sigma))
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


def run_suites(names: Sequence[str]) -> list[CheckReport]:
    reports: list[CheckReport] = []
    for name in names:
        if name == "all":
            for fn in SUITES.values():
                reports.extend(fn())
            continue
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)} or 'all'")
        reports.extend(SUITES[name]())
    return reports
