import csv

import numpy as np
import pytest

from ngn import stepsizes, theory, verify
from ngn.objectives import make_nonconvex_sum
from ngn.runner import Run, whole_traces
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
    check_nonconvex_rate,
    check_strongly_convex_rate,
    run_suites,
)


def test_lemma_equality_check_passes():
    report = check_lemma_equality()
    assert report.passed
    assert report.measured <= 1e-10


def test_lemma_bounds_check_passes():
    assert check_lemma_bounds(problem="quadratic1d").passed


def test_lemma_inequality_check_passes():
    assert check_lemma_inequality(problem="two_quadratics", sigma=0.3).passed


def test_contraction_check_passes():
    assert check_deterministic_contraction().passed


def test_gradient_check_passes():
    assert check_gradients(points_per_family=20).passed


def test_ggn_and_baseline_checks_pass():
    assert check_ggn_reductions().passed
    assert check_baseline_sanity().passed


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


def test_contraction_needs_a_sigma_factor():
    with pytest.raises(ValueError, match="len.sigma_factors. must be >= 1, got 0"):
        check_deterministic_contraction(sigma_factors=())


@pytest.mark.parametrize("check", [check_lemma_bounds, check_lemma_inequality])
def test_lemma_checks_fail_without_a_step(monkeypatch, check):
    def no_step(run):
        traces = whole_traces(run)
        for trace in traces:
            trace.stationary[:] = True  # as if every step stood still
        return traces

    assert check().passed
    monkeypatch.setattr(verify, "whole_traces", no_step)
    assert not check().passed


def test_injected_sign_bug_is_caught(monkeypatch):
    original = stepsizes._ngn_formula

    def broken(sigma, loss, gsq):
        return sigma / (1.0 - sigma * gsq / (2.0 * max(loss, stepsizes.F_FLOOR)))

    monkeypatch.setattr(stepsizes, "_ngn_formula", broken)
    report = check_lemma_equality()
    assert not report.passed
    monkeypatch.setattr(stepsizes, "_ngn_formula", original)


def test_suite_registry():
    assert set(SUITES) == {"lemmas", "stability", "gradients", "baselines", "rates"}
    with pytest.raises(ValueError):
        run_suites(["nonexistent"])


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
    (pilot,) = whole_traces(Run(obj, stepsizes.NGN(sigma), 2000, x0=x0, store_iterates=True))
    rng = np.random.default_rng(3)
    points = [pilot.iterates[i] for i in range(0, 2001, 10)]
    points += [x0 + rng.standard_normal(1) for _ in range(100)]
    expected = NOISE_SAFETY_MULTIPLIER * theory.estimate_delta_noise_sq(obj, points)
    assert report.params["delta_noise_sq"] == expected
    assert report.passed


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
    calls = count_stepsize_calls(monkeypatch, stepsizes.NGNAnnealed)
    check_annealed_rate(steps_grid=(5, 50, 500), n_seeds=4)
    assert calls == list(range(500))  # 555 with a run per K
