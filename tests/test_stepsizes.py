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
    PolicyError,
    PolyakKnownFStar,
    SPSMax,
    StepObservation,
    stepsize_bounds,
)
from ngn.specs import POLICIES, SpecError, build_spec, parse_call


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
    assert step(NGN(1.0), 2.0, 4.0) == pytest.approx(0.5)


def test_ngn_zero_gradient_gives_sigma():
    assert step(NGN(3.5), 2.0, 0.0) == 3.5


@pytest.mark.parametrize("policy", [NGN(1.0), GGN(1.0), GGN(1.0, "neg_log")],
                         ids=["ngn", "ggn", "ggn_neg_log"])
@pytest.mark.parametrize("loss, gsq", [(2.0, 4.0), (np.array([2.0, 1.0]), np.array([4.0, 0.0]))],
                         ids=["scalar", "rows"])
def test_sigma_policies_need_the_observed_sigma(policy, loss, gsq):
    # sigma_k comes from the observation only: no NaN, no constructor value
    with pytest.raises(TypeError):
        policy.stepsize(obs(loss, gsq))


def test_ngn_rejects_nonpositive_sigma():
    with pytest.raises(PolicyError):
        NGN(0.0)
    with pytest.raises(PolicyError):
        NGN(-1.0)


def test_ngn_annealed_schedule():
    pol = NGN(2.0, "inv_sqrt")
    assert pol.sigma_schedule(4)[0] == pytest.approx(2.0)
    assert pol.sigma_schedule(4)[3] == pytest.approx(1.0)
    # with g^2 = 0, gamma equals sigma_k exactly
    assert step(pol, 1.0, 0.0, k=3) == pytest.approx(1.0)
    lin = NGN(2.0, schedule="inv_linear")
    assert lin.sigma_schedule(2)[1] == pytest.approx(1.0)
    with pytest.raises(PolicyError):
        NGN(1.0, schedule="exp")
    for schedule in ("exp", "constant"):
        with pytest.raises(PolicyError):
            build_spec(POLICIES, f"ngn_annealed(sigma0=1, schedule={schedule})")


@pytest.mark.parametrize("sigma0", [2.0, 0.37, 3.0e-5])
def test_annealed_schedule_matches_math_formula(sigma0):
    # sqrt and division are correctly rounded, so the vector equals the scalar
    # formula bit for bit, for every k < 10^6
    k = range(10**6)
    inv_sqrt = NGN(sigma0, "inv_sqrt")
    inv_linear = NGN(sigma0, "inv_linear")
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
    policy = NGN(0.7, schedule)
    for k in (0, 1, 99, 100, 999_999):
        assert step(policy, 1.0, 0.0, k=k) == policy.sigma_schedule(k + 1, k)[0]
    # a late step's sigma_k costs no schedule of k entries
    fresh = NGN(0.7, schedule)
    tracemalloc.start()
    try:
        fresh.sigma_schedule(10**6, 10**6 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def test_sigma_schedules_of_other_policies():
    for policy in (NGN(0.3), GGN(0.3, "neg_log"), GGN(0.3, "monomial", p=3.0)):
        assert np.array_equal(policy.sigma_schedule(50), np.full(50, 0.3))
    for policy in (APS(), SPSMax(), PolyakKnownFStar(), AdaGradNorm(1.0, 0.1), Constant(0.3),
                   Armijo()):
        schedule = policy.sigma_schedule(50)
        assert schedule.shape == (50,) and np.isnan(schedule).all()


def test_policies_return_one_stepsize_per_row():
    loss, gsq = np.array([1.0, 2.0, 0.5]), np.array([4.0, 0.0, 1.0])
    o = StepObservation(k=2, loss=loss, grad_sq_norm=gsq, component_min=np.zeros(3),
                        probe=lambda gamma: np.zeros(3), sigma=np.array(0.3))
    for policy in (NGN(0.3), NGN(0.3, "inv_sqrt"), GGN(0.3), APS(), SPSMax(), PolyakKnownFStar(),
                   AdaGradNorm(1.0, 0.1), Constant(0.3), Armijo()):
        assert np.shape(policy.stepsize(o)) == (3,), policy


def test_ggn_quadratic_equals_ngn():
    o = obs(2.0, 4.0, sigma=1.0)
    assert GGN(1.0, "quadratic").stepsize(o) == NGN(1.0).stepsize(o)


def test_ggn_monomial_p2_equals_ngn():
    o = obs(0.7, 2.3, sigma=1.3)
    assert GGN(1.3, "monomial", p=2.0).stepsize(o) == pytest.approx(
        NGN(1.3).stepsize(o), rel=1e-15)


def test_ggn_neg_log_hand_value():
    # q = 1: gamma = sigma/(1 + sigma g^2); sigma=1, g^2=1 -> 0.5
    assert step(GGN(1.0, "neg_log"), 5.0, 1.0) == pytest.approx(0.5)


def test_ggn_rejects_bad_monomial():
    with pytest.raises(PolicyError):
        GGN(1.0, "monomial", p=1.0)
    with pytest.raises(PolicyError):
        GGN(1.0, "cubic")


def test_aps_hand_value_and_stationary_signal():
    assert APS().stepsize(obs(2.0, 4.0)) == pytest.approx(0.5)
    assert np.isnan(APS().stepsize(obs(2.0, 0.0)))


def test_sps_max_cap_and_clamp():
    pol = SPSMax(c=1.0, gamma_b=3.0)
    assert pol.stepsize(obs(2.0, 4.0, comp_min=0.0)) == pytest.approx(0.5)
    assert pol.stepsize(obs(100.0, 1.0, comp_min=0.0)) == 3.0  # capped
    assert pol.stepsize(obs(1.0, 0.0, comp_min=0.0)) == 3.0  # zero gradient
    # numerator clamped at zero when loss dips below the component minimum
    assert pol.stepsize(obs(0.5, 4.0, comp_min=1.0)) == 0.0


def test_polyak_known_fstar():
    pol = PolyakKnownFStar(f_star=1.0)
    assert pol.requires_full_batch
    assert pol.stepsize(obs(3.0, 4.0)) == pytest.approx(0.5)
    assert np.isnan(pol.stepsize(obs(3.0, 0.0)))


def test_adagrad_norm_hand_values_and_reset():
    pol = AdaGradNorm(eta=1.0, delta0=1.0)
    assert pol.stepsize(obs(1.0, 3.0)) == pytest.approx(0.5)  # 1/sqrt(1+3)
    assert pol.stepsize(obs(1.0, 5.0)) == pytest.approx(1.0 / 3.0)  # 1/sqrt(9)
    pol.reset()
    assert pol.stepsize(obs(1.0, 3.0)) == pytest.approx(0.5)


def test_adagrad_norm_monotone():
    pol = AdaGradNorm(eta=2.0, delta0=0.1)
    rng = np.random.default_rng(0)
    prev = math.inf
    for k in range(200):
        g = pol.stepsize(obs(1.0, float(rng.uniform(0, 10)), k=k))
        assert g <= prev + 1e-15
        prev = g


def test_constant_policy():
    assert Constant(0.25).stepsize(obs(1.0, 1.0)) == 0.25
    with pytest.raises(PolicyError):
        Constant(0.0)


def test_armijo_accepts_sufficient_decrease():
    pol = Armijo()
    x, grad = 2.0, 4.0  # f(x) = x^2 at x = 2

    def probe(gamma):
        return (x - gamma * grad) ** 2

    gamma = pol.stepsize(StepObservation(0, x * x, grad * grad, probe=probe))
    assert gamma == 0.5  # gamma_init 1 overshoots to f = 4; half lands on 0
    assert probe(gamma) <= x * x - 1e-4 * gamma * grad * grad


def test_armijo_zero_gradient_returns_init():
    pol = Armijo(gamma_init=0.7)
    assert pol.stepsize(StepObservation(0, 1.0, 0.0, probe=lambda gamma: 1.0)) == 0.7


def test_armijo_exhaustion_raises():
    pol = Armijo()

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
    assert isinstance(ngn, NGN) and ngn.schedule is None
    for schedule in NGN.SCHEDULES:
        annealed = build_spec(POLICIES, f"ngn_annealed(sigma0=1.0, schedule={schedule})")
        assert isinstance(annealed, NGN) and annealed.schedule == schedule
    assert build_spec(POLICIES, "ngn_annealed(sigma0=1.0)").schedule == "inv_sqrt"
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
    with pytest.raises(PolicyError):
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
