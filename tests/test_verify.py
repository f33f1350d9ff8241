import csv
import math

import numpy as np
import pytest

from ngn import specs, stepsizes, theory, verify
from ngn.objectives import make_nonconvex_sum
from ngn.runner import Run
from ngn.specs import POLICIES, build
from ngn.verify import (
    NOISE_SAFETY_MULTIPLIER,
    REPORT_HEADER,
    SUITES,
    CheckReport,
    check_annealed_rate,
    check_baseline_sanity,
    check_deterministic_contraction,
    check_ggn_reductions,
    check_gradients,
    check_lemma_bounds,
    check_lemma_equality,
    check_lemma_inequality,
    check_never_diverge,
    check_nonconvex_rate,
    check_strongly_convex_rate,
    select_suites,
)
from traces import whole_traces


def test_lemma_equality_check_passes():
    report = check_lemma_equality()
    assert report.passed
    assert report.measured <= 1e-10


def test_lemma_bounds_check_passes():
    assert check_lemma_bounds(problem="quadratic1d").passed


def test_lemma_inequality_check_passes():
    (report,) = check_lemma_inequality(problem="two_quadratics", sigma_factors=(0.3,))
    assert report.passed
    assert report.params["sigma"] == 0.3  # two_quadratics has L = 1


def test_contraction_check_passes(monkeypatch):
    # its bound needs only lam and sigma: no theory context, which costs an evaluation
    monkeypatch.setattr(theory, "context_from_objective",
                        lambda *args, **kwargs: pytest.fail("built a theory context"))
    assert check_deterministic_contraction().passed


def test_gradient_check_passes():
    assert check_gradients(points_per_family=20).passed


def test_ggn_and_baseline_checks_pass():
    assert check_ggn_reductions().passed
    assert check_baseline_sanity().passed


class OffNGN(stepsizes.NGN):
    """NGN off by one part in 1e9, so that criterion 12's harmonic-mean term reads above 0."""

    def stepsize(self, obs):
        return super().stepsize(obs) * (1.0 + 1e-9)


@pytest.mark.parametrize("trials, seed", [(1, 0), (1000, 0), (1000, 5)])
def test_identity_checks_match_a_loop_over_trials(trials, seed, monkeypatch):
    # one policy call over every trial measures, bit for bit, what one call
    # per trial measures, each trial's values drawn as the loop draws them
    rng = np.random.default_rng(seed)
    losses = 10.0 ** rng.uniform(-6, 2, trials)
    gsqs = 10.0 ** rng.uniform(-8, 4, trials)
    gsqs[rng.random(trials) < 0.01] = 0.0
    sigmas = 10.0 ** rng.uniform(-3, 3, trials)
    worst = 0.0
    for loss, gsq, sigma in zip(losses, gsqs, sigmas):
        gamma = build(POLICIES, "ngn", sigma=sigma).stepsize(
            stepsizes.StepObservation(0, loss, gsq, sigma=sigma))
        worst = max(worst, abs(gamma * gsq - 2.0 * ((sigma - gamma) / sigma) * loss)
                    / max(1.0, gamma * gsq))
    assert check_lemma_equality(trials, seed).measured == worst

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        loss, gsq, sigma = (10.0 ** rng.uniform(-6, 2), 10.0 ** rng.uniform(-8, 4),
                            10.0 ** rng.uniform(-2, 2))
        obs = stepsizes.StepObservation(0, loss, gsq, sigma=sigma)
        base = build(POLICIES, "ngn", sigma=sigma).stepsize(obs)
        quad = build(POLICIES, "ggn", sigma=sigma, h="quadratic").stepsize(obs)
        mono = build(POLICIES, "ggn", sigma=sigma, h="monomial", p=2.0).stepsize(obs)
        nlog = build(POLICIES, "ggn", sigma=sigma, h="neg_log").stepsize(obs)
        worst = max(worst, abs(quad - base) / base, abs(mono - base) / base,
                    abs(nlog - sigma / (1.0 + sigma * gsq)) / nlog)
    assert check_ggn_reductions(trials, seed).measured == worst

    rng = np.random.default_rng(seed)
    adagrad = build(POLICIES, "adagrad_norm", eta=1.5, delta0=0.01)
    sps = build(POLICIES, "sps_max", c=1.0, gamma_b=3.0)
    worst, prev = 0.0, math.inf
    for k in range(trials):
        loss, gsq, sigma = (10.0 ** rng.uniform(-6, 2), 10.0 ** rng.uniform(-8, 4),
                            10.0 ** rng.uniform(-2, 2))
        obs = stepsizes.StepObservation(k, loss, gsq, component_min=0.0, sigma=sigma)
        g_ada = adagrad.stepsize(obs)
        worst, prev = max(worst, g_ada - prev, sps.stepsize(obs) - sps.gamma_b), g_ada
        ngn = OffNGN(sigma=sigma).stepsize(obs)
        harmonic = 2.0 / (2.0 / sigma + gsq / loss)
        worst = max(worst, abs(ngn - harmonic) / ngn - 1e-12)
    monkeypatch.setitem(POLICIES, "ngn", specs.Entry(OffNGN, POLICIES["ngn"].params))
    measured = check_baseline_sanity(trials, seed).measured
    assert measured == worst and measured > 0.0


@pytest.mark.parametrize("check, size", [
    (check_lemma_equality, "trials"),
    (check_ggn_reductions, "trials"),
    (check_baseline_sanity, "trials"),
    (check_gradients, "points_per_family"),
])
def test_empty_samples_are_rejected(check, size):
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"{size} must be >= 1"):
            check(**{size: value})


@pytest.mark.parametrize("steps", [0, -4, 3, 10])
def test_strongly_convex_rate_needs_checkpoints_on_the_cadence(steps):
    # the checkpoints K/4, K/2 and K are metric points only when 4 divides K
    with pytest.raises(ValueError, match=f"positive multiple of 4, got {steps}"):
        check_strongly_convex_rate(steps=steps, n_seeds=2)
    assert check_strongly_convex_rate(steps=8, n_seeds=2).params["steps"] == 8


@pytest.mark.parametrize("check, grid", [
    (check_deterministic_contraction, "sigma_factors"),
    (check_lemma_inequality, "sigma_factors"),
    (check_never_diverge, "sigma_grid"),
], ids=["contraction", "lemma_inequality", "never_diverge"])
def test_grid_checks_need_a_sigma(check, grid):
    with pytest.raises(ValueError, match=f"len.{grid}. must be >= 1, got 0"):
        check(**{grid: ()})
    # a grid's sigmas are the rows of one run, which takes each sigma once
    with pytest.raises(ValueError, match="seed 0 repeats with parameter values"):
        check(**{grid: (0.5, 0.5)})


@pytest.mark.parametrize("check", [lambda: [check_lemma_bounds()], check_lemma_inequality],
                         ids=["check_lemma_bounds", "check_lemma_inequality"])
def test_lemma_checks_fail_without_a_step(monkeypatch, check):
    advance = Run.advance

    def no_step(run):
        chunk = advance(run)
        chunk.gamma[:] = np.nan  # as if the loss test had stopped every row before its step
        return chunk

    assert all(report.passed for report in check())
    monkeypatch.setattr(Run, "advance", no_step)
    assert not any(report.passed for report in check())


@pytest.mark.parametrize("check", [
    lambda: check_strongly_convex_rate(steps=8, n_seeds=3, x0=1e20),
    lambda: check_deterministic_contraction(lam=1e31),
    lambda: check_never_diverge(x0=1e20, sigma_grid=(1.0,))[-1],
], ids=["strongly_convex_rate", "contraction", "stepsize_tail"])
def test_diverged_runs_fail_with_measured_inf(check):
    # every run diverges at step 0: it has no checkpoint, no contraction
    # ratio and no stepsize tail, which is no evidence of a pass
    report = check()
    assert report.measured == math.inf, report.csv_row()
    assert not report.passed
    assert report.params.get("spread", math.inf) == math.inf


def test_unstable_gd_fails_when_its_start_diverges():
    # a start loss above the divergence threshold stops the gamma = 2 run at
    # step 0, before any step could show the instability
    reports = {report.name: report for report in check_never_diverge(x0=1e20, sigma_grid=(1.0,))}
    report = reports["fig2_gd_unstable_diverges"]
    assert report.measured == 0.0
    assert not report.passed


def test_injected_sign_bug_is_caught(monkeypatch):
    original = stepsizes._ngn_formula

    def broken(sigma, loss, gsq):
        return sigma / (1.0 - sigma * gsq / (2.0 * np.maximum(loss, stepsizes.F_FLOOR)))

    monkeypatch.setattr(stepsizes, "_ngn_formula", broken)
    report = check_lemma_equality()
    assert not report.passed
    monkeypatch.setattr(stepsizes, "_ngn_formula", original)


def test_suite_registry():
    assert set(SUITES) == {"lemmas", "stability", "gradients", "baselines", "rates"}
    with pytest.raises(ValueError, match="unknown suite 'nonexistent'"):
        select_suites(["nonexistent"])


def test_report_csv_row_format():
    report = check_lemma_equality(trials=100)
    row = report.csv_row()
    assert row.startswith("lemma_fundamental_equality,")
    assert ",pass," in row or ",fail," in row


def test_report_rows_keep_seven_columns():
    reports = [check_deterministic_contraction(steps=20),
               CheckReport(name="list_param", params={"steps_grid": [5, 50, 500]},
                           measured=1.0, bound=2.0, passed=True)]
    width = len(REPORT_HEADER.split(","))
    rows = list(csv.reader(r.csv_row() for r in reports))
    assert rows[1][1] == "steps_grid=[5, 50, 500]"
    for row in rows:
        assert len(row) == width
        for cell in row[2:5] + row[6:]:
            float(cell)


@pytest.mark.parametrize("steps, n_seeds", [(500, 3), (3000, 2)])
def test_nonconvex_pilot_is_seed_zero(steps, n_seeds):
    # the noise bound's pilot points come from seed 0 of the main run, which
    # runs on to step 2000 when the others stop at 500; they are those of a
    # separate 2000-step run of seed 0
    report = check_nonconvex_rate(steps=steps, n_seeds=n_seeds)
    obj = make_nonconvex_sum(8, 3)
    sigma = 1.0 / (2.0 * obj.l_max)
    x0 = obj.x_star + 2.5
    (pilot,) = whole_traces(Run(obj, build(POLICIES, "ngn", sigma=sigma), 2000, x0=x0,
                                cadence=1))
    rng = np.random.default_rng(3)
    points = [pilot.iterates[i] for i in range(0, 2001, 10)]
    points += [x0 + rng.standard_normal(1) for _ in range(100)]
    expected = NOISE_SAFETY_MULTIPLIER * theory.estimate_delta_noise_sq(obj, points)
    assert report.params["delta_noise_sq"] == expected
    assert report.passed


def test_nonconvex_rate_averages_the_first_k_steps_only():
    # with one seed, its row runs on to the pilot's 2000 steps, so chunks
    # pass K = 100; the measured value is the mean over x^0 .. x^99 alone
    report = check_nonconvex_rate(steps=100, n_seeds=1)
    obj = make_nonconvex_sum(8, 3)
    (trace,) = whole_traces(Run(obj, build(POLICIES, "ngn", sigma=1.0 / (2.0 * obj.l_max)), 100,
                                x0=obj.x_star + 2.5, cadence=1))
    grads = obj.full_many(trace.iterates[:100])[1]
    assert report.measured == pytest.approx(np.vecdot(grads, grads).mean(), rel=1e-12)


@pytest.mark.parametrize("n_seeds", [1, 20])
def test_nonconvex_rate_measured_is_an_independent_mean(n_seeds):
    # K = 500. With 20 seeds the first chunk ends at K, where 19 rows retire,
    # and seed 0 runs on alone to the pilot's 2000 steps in a chunk of its
    # own; with one seed, one chunk passes K. Either way `measured` is the
    # mean over seeds of each seed's mean ||grad f(x^k)||^2 over x^0 .. x^499,
    # bit for bit that of a plain run to K
    report = check_nonconvex_rate(steps=500, n_seeds=n_seeds)
    obj = make_nonconvex_sum(8, 3)
    run = Run(obj, build(POLICIES, "ngn", sigma=1.0 / (2.0 * obj.l_max)), 500,
              seeds=range(n_seeds), x0=obj.x_star + 2.5, cadence=1)
    grads = obj.full_many(np.concatenate([t.iterates[:500] for t in whole_traces(run)]))[1]
    assert report.measured == np.mean(np.vecdot(grads, grads).reshape(n_seeds, 500).mean(axis=1))


# check_annealed_rate(steps_grid=(5, 50, 500)) when each K had a run of its own
ANNEALED_ROWS = [
    "theorem_annealed_rate,sigma0=1.0;steps=5;seeds=20,0.5304659904021244,"
    "11.377139338219479,0.0,pass,0",
    "theorem_annealed_rate,sigma0=1.0;steps=50;seeds=20,0.044407592211869976,"
    "3.9026438316094474,0.0,pass,0",
    "theorem_annealed_rate,sigma0=1.0;steps=500;seeds=20,0.00440717317556869,"
    "1.5905265100527557,0.0,pass,0",
    'theorem_annealed_rate_decreasing,"steps_grid=[5, 50, 500]",0.09924368685746196,'
    "1.0,0.0,pass,0",
]


def test_annealed_rate_prefixes_keep_rows():
    assert [r.csv_row() for r in check_annealed_rate(steps_grid=(5, 50, 500))] == ANNEALED_ROWS


def count_stepsize_calls(monkeypatch, policy_class) -> list:
    calls = []
    stepsize = policy_class.stepsize
    monkeypatch.setattr(policy_class, "stepsize",
                        lambda self, obs: calls.append(obs.k) or stepsize(self, obs))
    return calls


def test_rate_checks_step_once(monkeypatch):
    # the nonconvex check's pilot is its own seed 0, and the annealed check
    # runs once, to its largest K: one policy call per step of the longest row
    calls = count_stepsize_calls(monkeypatch, stepsizes.NGN)
    check_nonconvex_rate(steps=500, n_seeds=4)
    assert calls == list(range(2000))  # 2500 with a separate pilot run
    calls = count_stepsize_calls(monkeypatch, stepsizes.NGN)
    check_annealed_rate(steps_grid=(5, 50, 500), n_seeds=4)
    assert calls == list(range(500))  # 555 with a run per K


def test_grid_checks_step_once(monkeypatch):
    # a check's sigma grid is the rows of one run: one policy call per step
    # of its longest row, not one per step of each sigma's own run
    calls = count_stepsize_calls(monkeypatch, stepsizes.NGN)
    check_deterministic_contraction()
    assert calls == list(range(200))  # 600 with a run per sigma
    for problem in ("two_quadratics", "quadratic1d"):
        calls = count_stepsize_calls(monkeypatch, stepsizes.NGN)
        check_lemma_inequality(problem=problem)
        assert calls == list(range(1000))  # 3000 with a run per sigma
    # the NGN grid's run, then the settle run; the two GD rows are one run
    monkeypatch.setattr(verify, "SETTLE_STEPS", 300)
    calls = count_stepsize_calls(monkeypatch, stepsizes.NGN)
    gd_calls = count_stepsize_calls(monkeypatch, stepsizes.Constant)
    check_never_diverge()
    assert calls == list(range(500)) + list(range(300))  # 2800 with a run per sigma
    assert gd_calls == list(range(500))  # 600 with a run per gamma
