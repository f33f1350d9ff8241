import math
import tracemalloc

import numpy as np
import pytest

from ngn.stepsizes import (
    APS,
    GGN,
    NGN,
    AdaGradNorm,
    Armijo,
    ArmijoSearchError,
    Constant,
    PolyakKnownFStar,
    SPSMax,
    StepObservation,
    stepsize_bounds,
)
from ngn.specs import POLICIES, SpecError, build, build_spec, parse_call


def policy(spec):
    return build_spec(POLICIES, spec)


def obs(loss, gsq, k=0, comp_min=None, sigma=None):
    return StepObservation(k=k, loss=loss, grad_sq_norm=gsq, component_min=comp_min,
                           sigma=sigma)


def step(policy, loss, gsq, k=0):
    """The policy's stepsize at step k, observing sigma_k of its own schedule, as a run does."""
    return policy.stepsize(obs(loss, gsq, k=k, sigma=policy.sigma_schedule(k + 1, k)[0, ...]))


def test_observation_validation():
    with pytest.raises(ValueError):
        StepObservation(k=0, loss=-1.0, grad_sq_norm=0.0)
    with pytest.raises(ValueError):
        StepObservation(k=0, loss=1.0, grad_sq_norm=-1.0)


def test_ngn_hand_value():
    # sigma=1, f=2, g^2=4: 1/(1 + 4/4) = 0.5
    assert step(policy("ngn(sigma=1.0)"), 2.0, 4.0) == pytest.approx(0.5)


def test_ngn_zero_gradient_gives_sigma():
    assert step(policy("ngn(sigma=3.5)"), 2.0, 0.0) == 3.5


@pytest.mark.parametrize("spec", ["ngn(sigma=1.0)", "ggn(sigma=1.0)", "ggn(sigma=1.0, h=neg_log)"],
                         ids=["ngn", "ggn", "ggn_neg_log"])
@pytest.mark.parametrize("loss, gsq", [(2.0, 4.0), (np.array([2.0, 1.0]), np.array([4.0, 0.0]))],
                         ids=["scalar", "rows"])
def test_sigma_policies_need_the_observed_sigma(spec, loss, gsq):
    # sigma_k comes from the observation only: no NaN, no constructor value
    with pytest.raises(TypeError):
        policy(spec).stepsize(obs(loss, gsq))


def test_ngn_rejects_nonpositive_sigma():
    for sigma in (0.0, -1.0):
        with pytest.raises(SpecError, match=f"'sigma' must be positive, got {sigma!r}"):
            policy(f"ngn(sigma={sigma})")


def test_ngn_annealed_schedule():
    pol = policy("ngn(sigma=2.0, schedule=inv_sqrt)")
    assert pol.sigma_schedule(4)[0] == pytest.approx(2.0)
    assert pol.sigma_schedule(4)[3] == pytest.approx(1.0)
    # with g^2 = 0, gamma equals sigma_k exactly
    assert step(pol, 1.0, 0.0, k=3) == pytest.approx(1.0)
    lin = policy("ngn(sigma=2.0, schedule=inv_linear)")
    assert lin.sigma_schedule(2)[1] == pytest.approx(1.0)
    with pytest.raises(SpecError,
                       match="'schedule' must be one of constant, inv_sqrt, inv_linear, got 'exp'"):
        policy("ngn(sigma=1, schedule=exp)")
    known = "ngn, ggn, aps, sps_max, polyak, adagrad_norm, constant, armijo"
    with pytest.raises(SpecError, match=f"unknown name 'ngn_annealed'; choose from {known}$"):
        policy("ngn_annealed(sigma0=1)")


@pytest.mark.parametrize("sigma0", [2.0, 0.37, 3.0e-5])
def test_annealed_schedule_matches_math_formula(sigma0):
    # sqrt and division are correctly rounded, so the vector equals the scalar
    # formula bit for bit, for every k < 10^6
    k = range(10**6)
    inv_sqrt = build(POLICIES, "ngn", sigma=sigma0, schedule="inv_sqrt")
    inv_linear = build(POLICIES, "ngn", sigma=sigma0, schedule="inv_linear")
    assert np.array_equal(inv_sqrt.sigma_schedule(10**6),
                          [sigma0 / math.sqrt(i + 1) for i in k])
    assert np.array_equal(inv_linear.sigma_schedule(10**6), [sigma0 / (i + 1) for i in k])
    # a schedule that starts at k computes sigma_k by the same formula, also past 10^6
    for i in (0, 5, 999_999, 3_000_000):
        assert inv_sqrt.sigma_schedule(i + 1, i)[0] == sigma0 / math.sqrt(i + 1)
        assert inv_linear.sigma_schedule(i + 1, i)[0] == sigma0 / (i + 1)


@pytest.mark.parametrize("schedule", NGN.SCHEDULES)
def test_annealed_stepsize_keeps_no_schedule(schedule):
    # with g^2 = 0, gamma is the observed sigma_k exactly: the schedule's, at every step
    annealed = build(POLICIES, "ngn", sigma=0.7, schedule=schedule)
    for k in (0, 1, 99, 100, 999_999):
        assert step(annealed, 1.0, 0.0, k=k) == annealed.sigma_schedule(k + 1, k)[0]
    # a late step's sigma_k costs no schedule of k entries
    fresh = build(POLICIES, "ngn", sigma=0.7, schedule=schedule)
    tracemalloc.start()
    try:
        fresh.sigma_schedule(10**6, 10**6 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def test_sigma_schedules_of_other_policies():
    for spec in ("ngn(sigma=0.3)", "ggn(sigma=0.3, h=neg_log)", "ggn(sigma=0.3, h=monomial, p=3)"):
        assert np.array_equal(policy(spec).sigma_schedule(50), np.full(50, 0.3))
    for spec in ("aps()", "sps_max(gamma_b=1)", "polyak()", "adagrad_norm(eta=1, delta0=0.1)",
                 "constant(gamma=0.3)", "armijo()"):
        schedule = policy(spec).sigma_schedule(50)
        assert schedule.shape == (50,) and np.isnan(schedule).all()


@pytest.mark.parametrize("spec", ["ngn(sigma=0.3)", "ngn(sigma=0.3, schedule=inv_sqrt)"])
def test_sigma_schedule_of_one_sigma_per_row(spec):
    # a column per row, each the schedule of that row's sigma alone, bit for bit
    sigmas = [0.3, 2.0, 3.0e-5]
    rows = build_spec(POLICIES, spec, sigma=sigmas).sigma_schedule(30, 7)
    assert rows.shape == (23, 3)
    for column, sigma in zip(rows.T, sigmas):
        alone = build_spec(POLICIES, spec, sigma=sigma)
        assert np.array_equal(column, alone.sigma_schedule(30, 7))


def test_policies_return_one_stepsize_per_row():
    loss, gsq = np.array([1.0, 2.0, 0.5]), np.array([4.0, 0.0, 1.0])
    o = StepObservation(k=2, loss=loss, grad_sq_norm=gsq, component_min=np.zeros(3),
                        probe=lambda gamma: np.zeros(3), sigma=np.array(0.3))
    for spec in ("ngn(sigma=0.3)", "ngn(sigma=0.3, schedule=inv_sqrt)", "ggn(sigma=0.3)", "aps()",
                 "sps_max(gamma_b=1)", "polyak()", "adagrad_norm(eta=1, delta0=0.1)",
                 "constant(gamma=0.3)", "armijo()"):
        assert np.shape(policy(spec).stepsize(o)) == (3,), spec


def test_policies_with_one_value_per_row_match_each_value_alone():
    # each row's stepsize is the one its own values give, bit for bit; a
    # stopped row leaves its values with `keep_rows`
    loss, gsq = np.array([1.0, 2.0, 0.5]), np.array([4.0, 0.0, 1.0])
    o = StepObservation(k=2, loss=loss, grad_sq_norm=gsq, component_min=np.full(3, 0.1),
                        probe=lambda gamma: loss - gamma, sigma=np.array([0.3, 1.0, 2.0]))
    rows = {"ggn(sigma=1, h=monomial)": {"p": [1.5, 2.0, 4.0]},
            "sps_max(gamma_b=1)": {"c": [0.5, 1.0, 2.0], "gamma_b": [0.1, 1.0, 3.0]},
            "polyak()": {"fstar": [0.0, 0.5, 0.25]},
            "adagrad_norm(eta=1, delta0=0.1)": {"eta": [0.5, 1.0, 2.0], "delta0": [0.1, 1.0, 2.0]},
            "constant(gamma=1)": {"gamma": [0.1, 0.2, 0.3]},
            "armijo()": {"c1": [0.1, 0.5, 0.9], "backtrack": [0.2, 0.5, 0.9],
                         "gamma_init": [1.0, 2.0, 3.0]}}
    for spec, values in rows.items():
        together = build_spec(POLICIES, spec, **values)
        alone = [build_spec(POLICIES, spec, **{k: v[r] for k, v in values.items()})
                 for r in range(3)]
        expected = [pol.stepsize(StepObservation(
            2, loss[r:r + 1], gsq[r:r + 1], component_min=o.component_min[r:r + 1],
            probe=lambda gamma, r=r: loss[r:r + 1] - gamma, sigma=o.sigma[r:r + 1]))[0]
            for r, pol in enumerate(alone)]
        assert np.array_equal(together.stepsize(o), expected, equal_nan=True), spec
        together.keep_rows(np.array([True, False, True]))
        kept = StepObservation(3, loss[[0, 2]], gsq[[0, 2]], component_min=o.component_min[:2],
                               probe=lambda gamma: loss[[0, 2]] - gamma, sigma=o.sigma[[0, 2]])
        assert np.shape(together.stepsize(kept)) == (2,), spec
        together.reset()  # every row's values again
        assert np.shape(together.stepsize(o)) == (3,), spec


def test_ggn_quadratic_equals_ngn():
    o = obs(2.0, 4.0, sigma=1.0)
    ngn = policy("ngn(sigma=1.0)")
    assert policy("ggn(sigma=1.0, h=quadratic)").stepsize(o) == ngn.stepsize(o)


def test_ggn_monomial_p2_equals_ngn():
    o = obs(0.7, 2.3, sigma=1.3)
    assert policy("ggn(sigma=1.3, h=monomial, p=2.0)").stepsize(o) == pytest.approx(
        policy("ngn(sigma=1.3)").stepsize(o), rel=1e-15)


def test_ggn_neg_log_hand_value():
    # q = 1: gamma = sigma/(1 + sigma g^2); sigma=1, g^2=1 -> 0.5
    assert step(policy("ggn(sigma=1.0, h=neg_log)"), 5.0, 1.0) == pytest.approx(0.5)


def test_ggn_rejects_bad_monomial():
    with pytest.raises(SpecError, match="'p' must be above 1, got 1.0"):
        policy("ggn(sigma=1.0, h=monomial, p=1.0)")
    with pytest.raises(SpecError, match="'h' must be one of quadratic, monomial, neg_log"):
        policy("ggn(sigma=1.0, h=cubic)")


def test_aps_hand_value_and_stationary_signal():
    aps = policy("aps()")
    assert aps.stepsize(obs(2.0, 4.0)) == pytest.approx(0.5)
    assert np.isnan(aps.stepsize(obs(2.0, 0.0)))


def test_sps_max_cap_and_clamp():
    pol = policy("sps_max(c=1.0, gamma_b=3.0)")
    assert pol.stepsize(obs(2.0, 4.0, comp_min=0.0)) == pytest.approx(0.5)
    assert pol.stepsize(obs(100.0, 1.0, comp_min=0.0)) == 3.0  # capped
    assert pol.stepsize(obs(1.0, 0.0, comp_min=0.0)) == 3.0  # zero gradient
    # numerator clamped at zero when loss dips below the component minimum
    assert pol.stepsize(obs(0.5, 4.0, comp_min=1.0)) == 0.0


def test_polyak_known_fstar():
    pol = policy("polyak(fstar=1.0)")
    assert pol.requires_full_batch
    assert pol.stepsize(obs(3.0, 4.0)) == pytest.approx(0.5)
    assert np.isnan(pol.stepsize(obs(3.0, 0.0)))


def test_adagrad_norm_hand_values_and_reset():
    pol = policy("adagrad_norm(eta=1.0, delta0=1.0)")
    assert pol.stepsize(obs(1.0, 3.0)) == pytest.approx(0.5)  # 1/sqrt(1+3)
    assert pol.stepsize(obs(1.0, 5.0)) == pytest.approx(1.0 / 3.0)  # 1/sqrt(9)
    pol.reset()
    assert pol.stepsize(obs(1.0, 3.0)) == pytest.approx(0.5)


def test_adagrad_norm_monotone():
    pol = policy("adagrad_norm(eta=2.0, delta0=0.1)")
    rng = np.random.default_rng(0)
    prev = math.inf
    for k in range(200):
        g = pol.stepsize(obs(1.0, float(rng.uniform(0, 10)), k=k))
        assert g <= prev + 1e-15
        prev = g


def test_constant_policy():
    assert policy("constant(gamma=0.25)").stepsize(obs(1.0, 1.0)) == 0.25
    with pytest.raises(SpecError, match="'gamma' must be positive, got 0.0"):
        policy("constant(gamma=0.0)")


def test_armijo_accepts_sufficient_decrease():
    pol = policy("armijo()")
    x, grad = 2.0, 4.0  # f(x) = x^2 at x = 2

    def probe(gamma):
        return (x - gamma * grad) ** 2

    gamma = pol.stepsize(StepObservation(0, x * x, grad * grad, probe=probe))
    assert gamma == 0.5  # gamma_init 1 overshoots to f = 4; half lands on 0
    assert probe(gamma) <= x * x - 1e-4 * gamma * grad * grad


def test_armijo_zero_gradient_returns_init():
    pol = policy("armijo(gamma_init=0.7)")
    assert pol.stepsize(StepObservation(0, 1.0, 0.0, probe=lambda gamma: 1.0)) == 0.7


def test_armijo_exhaustion_raises():
    pol = policy("armijo()")

    def hostile(gamma):
        return 1e6  # no candidate ever decreases

    with pytest.raises(ArmijoSearchError):
        pol.stepsize(StepObservation(0, 0.0, 1.0, probe=hostile))


def test_stepsize_bounds_hand_value():
    lo, hi = stepsize_bounds(1.0, 1.0)
    assert lo == pytest.approx(0.5)
    assert hi == 1.0


def test_parse_policy_grammar():
    ngn = build_spec(POLICIES, "ngn(sigma=3.0)")
    assert isinstance(ngn, NGN) and ngn.schedule == "constant"
    for schedule in NGN.SCHEDULES:
        annealed = build_spec(POLICIES, f"ngn(sigma=1.0, schedule={schedule})")
        assert isinstance(annealed, NGN) and annealed.schedule == schedule
    assert isinstance(build_spec(POLICIES, "sps_max(c=1, gamma_b=3, fstar=0)"), SPSMax)
    assert isinstance(build_spec(POLICIES, "adagrad_norm(eta=10, delta0=0.01)"), AdaGradNorm)
    assert isinstance(build_spec(POLICIES, "constant(gamma=0.1)"), Constant)
    assert isinstance(build_spec(POLICIES, "polyak(fstar=0.0)"), PolyakKnownFStar)
    assert isinstance(build_spec(POLICIES, "armijo()"), Armijo)
    assert isinstance(build_spec(POLICIES, "ggn(sigma=1, h=neg_log)"), GGN)
    assert isinstance(build_spec(POLICIES, "aps()"), APS)


def test_parse_policy_errors():
    with pytest.raises(SpecError, match="unknown name 'warp'"):
        build_spec(POLICIES, "warp(speed=9)")
    with pytest.raises(SpecError, match="missing required parameter 'sigma'"):
        build_spec(POLICIES, "ngn()")
    with pytest.raises(SpecError, match="'sigma' must be positive"):
        build_spec(POLICIES, "ngn(sigma=0)")
    with pytest.raises(SpecError, match="cannot parse"):
        build_spec(POLICIES, "not a call at all")
    with pytest.raises(SpecError, match="no parameter 'sigmaa'"):
        build_spec(POLICIES, "ngn(sigma=1.0, sigmaa=7)")
    with pytest.raises(SpecError, match="'sigma' must be float"):
        build_spec(POLICIES, "ngn(sigma=abc)")


def test_parse_call_values():
    name, kw = parse_call("ggn(sigma=2.5, h=neg_log)")
    assert name == "ggn"
    assert kw == {"sigma": 2.5, "h": "neg_log"}
