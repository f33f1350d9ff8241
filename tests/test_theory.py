import math

import numpy as np
import pytest

from ngn import objectives
from ngn.objectives import make_linear_regression, make_nonconvex_sum, make_two_quadratics
from ngn.stepsizes import stepsize_bounds
from ngn.theory import (
    TheoryContext,
    annealed_bound,
    annealed_constants,
    context_from_objective,
    contraction_rho,
    convex_bound,
    estimate_delta_noise_sq,
    nonconvex_bound,
    rate_terms,
    strongly_convex_bound,
)


def ctx(**kw):
    base = dict(l_smooth=1.0, mu=0.5, delta_int=0.5, delta_pos=0.2,
                delta_noise_sq=0.3)
    base.update(kw)
    return TheoryContext(**base)


def test_rate_terms_hand_values():
    # sigma = L = 1: T0 = 2/((3)(2)) = 1/3, T1 = 6/3 = 2,
    # T2 = (2/(1+1)) * (1/3) = 1/3
    t0, t1, t2 = rate_terms(1.0, 1.0)
    assert t0 == pytest.approx(1.0 / 3.0)
    assert t1 == pytest.approx(2.0)
    assert t2 == pytest.approx(1.0 / 3.0)


def test_t2_vanishes_at_small_sigma():
    for sigma in (0.1, 0.25, 0.5):
        assert rate_terms(sigma, 1.0)[2] == 0.0
    assert rate_terms(0.51, 1.0)[2] > 0.0


def test_rho_is_half_t0():
    for sigma in (0.01, 0.1, 1.0 / math.sqrt(2.0), 1.0, 10.0):
        for l_smooth in (0.5, 1.0, 4.0):
            t0, _, _ = rate_terms(sigma, l_smooth)
            rho = contraction_rho(sigma, l_smooth)
            assert rho == t0 / 2.0
            # mu = L, the largest mu a context admits: mu*rho peaks at 3 - 2 sqrt(2)
            # (sigma L = 1/sqrt(2)), so the strongly convex bound's base stays in (0, 1)
            assert 0.0 < l_smooth * rho <= 3.0 - 2.0 * math.sqrt(2.0) + 1e-15
            c = ctx(l_smooth=l_smooth, mu=l_smooth)
            floor = strongly_convex_bound(c, sigma, 10**6, 1.0)
            assert strongly_convex_bound(c, sigma, 1, 1.0) > floor > 0.0


@pytest.mark.parametrize("sigma, l_smooth", [(0.0, 1.0), (-2.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
def test_contraction_rho_needs_positive_sigma_and_l(sigma, l_smooth):
    # unchecked, the formula gives 0.0 and -2/3 for the first two and divides by zero for the others
    with pytest.raises(ValueError, match="sigma and L must be positive"):
        contraction_rho(sigma, l_smooth)


def test_convex_bound_hand_value():
    # sigma=L=1, K=10, d0^2=4, d_int=0.5, d_pos=0.2:
    # eta = 2/9 -> 4/(eta*10) = 1.8; 3*1*1*2*0.5 = 3.0; 1*1*1*0.2 = 0.2
    c = ctx()
    assert convex_bound(c, 1.0, 10, 4.0) == pytest.approx(5.0)


def test_convex_bound_proof_constant_is_tighter():
    c = ctx()
    for sigma in (0.05, 0.5, 2.0):
        stated = convex_bound(c, sigma, 100, 1.0)
        proof = convex_bound(c, sigma, 100, 1.0, constant="proof")
        assert proof <= stated
    with pytest.raises(ValueError):
        convex_bound(c, 1.0, 10, 1.0, constant="folklore")


def test_convex_bound_decreasing_in_k():
    c = ctx(delta_int=0.0, delta_pos=0.0)
    values = [convex_bound(c, 0.5, k, 1.0) for k in (10, 100, 1000)]
    assert values[0] > values[1] > values[2]


def test_strongly_convex_bound_hand_value():
    # sigma=L=1, mu=0.5, k=2, d0^2=1: rho=1/6, (1-1/12)^2 = (11/12)^2
    # floor: (6/0.5)*(1+1)*0.5 = 12 and (2/0.5)*1*0.2 = 0.8
    c = ctx()
    expected = (11.0 / 12.0) ** 2 + 12.0 + 0.8
    assert strongly_convex_bound(c, 1.0, 2, 1.0) == pytest.approx(expected)


def test_strongly_convex_requires_mu():
    with pytest.raises(ValueError):
        strongly_convex_bound(ctx(mu=0.0), 1.0, 5, 1.0)


def test_nonconvex_bound_hand_value():
    # sigma = 1/(2L) = 0.5, gap=2, K=100: 12*2/(0.5*100) = 0.48
    # noise: 18*0.5*1*0.3 = 2.7
    c = ctx()
    assert nonconvex_bound(c, 0.5, 100, 2.0) == pytest.approx(3.18)


def test_nonconvex_bound_rejects_large_sigma():
    with pytest.raises(ValueError):
        nonconvex_bound(ctx(), 0.6, 100, 1.0)


def test_annealed_constants_hand_values():
    # sigma0=L=1: C1 = 3*2/4 = 1.5; C2 = (6*0.5 + 2*1*0.2)*1*1 = 3.4
    c1, c2 = annealed_constants(ctx(), 1.0)
    assert c1 == pytest.approx(1.5)
    assert c2 == pytest.approx(3.4)


@pytest.mark.parametrize("sigma0", [-1.0, 0.0])
def test_annealed_constants_need_positive_sigma0(sigma0):
    # unchecked, the formulas give (0.0, 0.0) for -1.0 and divide by zero for 0.0
    with pytest.raises(ValueError, match="sigma0 must be positive"):
        annealed_constants(ctx(), sigma0)


def test_annealed_bound_hand_value():
    # K=100: C1*4/9 + C1*C2*ln(101)/9
    expected = 1.5 * 4.0 / 9.0 + 1.5 * 3.4 * math.log(101.0) / 9.0
    assert annealed_bound(ctx(), 1.0, 100, 4.0) == pytest.approx(expected)


def test_annealed_bound_needs_two_steps():
    with pytest.raises(ValueError):
        annealed_bound(ctx(), 1.0, 1, 1.0)


def test_context_from_two_quadratics():
    obj = make_two_quadratics()
    c = context_from_objective(obj)
    assert c.l_smooth == 1.0
    assert c.mu == 1.0
    assert c.delta_int == pytest.approx(0.5, abs=1e-12)
    assert c.delta_pos == pytest.approx(0.0, abs=1e-12)


def test_context_validation():
    with pytest.raises(ValueError):
        TheoryContext(l_smooth=0.0, mu=0.0, delta_int=0.0, delta_pos=0.0)
    with pytest.raises(ValueError):
        TheoryContext(l_smooth=1.0, mu=0.0, delta_int=-0.1, delta_pos=0.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: rate_terms(NAN, 1.0), lambda: rate_terms(1.0, INF), lambda: contraction_rho(NAN, 1.0),
    lambda: convex_bound(ctx(), INF, 10, 1.0), lambda: convex_bound(ctx(), 1.0, 10, NAN),
    lambda: strongly_convex_bound(ctx(), NAN, 1, 1.0),
    lambda: strongly_convex_bound(ctx(), 0.5, 1, INF),
    lambda: nonconvex_bound(ctx(), NAN, 10, 1.0), lambda: nonconvex_bound(ctx(), 0.5, 10, INF),
    lambda: annealed_constants(ctx(), NAN), lambda: annealed_constants(ctx(), INF),
    lambda: annealed_bound(ctx(), 1.0, 10, NAN),
    lambda: ctx(l_smooth=NAN), lambda: ctx(l_smooth=INF), lambda: ctx(mu=NAN),
    lambda: ctx(delta_int=INF), lambda: ctx(delta_pos=NAN), lambda: ctx(delta_noise_sq=INF),
    lambda: stepsize_bounds(NAN, 1.0), lambda: stepsize_bounds(1.0, INF),
])
def test_preconditions_reject_nan_and_inf(call):
    # NaN passes a `<= 0` test and inf an `x > 0` one: unchecked, these return
    # NaN, inf or 0.0 bounds, or build a context of them, without an error
    with pytest.raises(ValueError):
        call()


def test_noise_estimate_two_quadratics_at_origin():
    # grads at 0 are -1 and +1, full gradient 0 -> variance exactly 1
    obj = make_two_quadratics()
    est = estimate_delta_noise_sq(obj, [np.array([0.0])])
    assert est == pytest.approx(1.0)


def test_noise_estimate_matches_component_loop(monkeypatch):
    # one call over (point, component) rows, also a point per block, adds the
    # components in the order of a loop over them
    rng = np.random.default_rng(2)
    for obj in (make_linear_regression(3, 9, seed=1, noise_std=0.3), make_nonconvex_sum(6, 2)):
        points = rng.standard_normal((5, obj.dim))
        full_grad = obj.full_many(points)[1]
        var = np.zeros(5)
        for i in range(obj.n):
            diff = obj.eval_many(np.full((5, 1), i), points)[1] - full_grad
            var += np.vecdot(diff, diff)
        expected = float(np.max(var / obj.n))
        assert estimate_delta_noise_sq(obj, points) == expected
        monkeypatch.setattr(objectives, "ROW_BLOCK_ENTRIES", obj.n * obj.dim)
        assert estimate_delta_noise_sq(obj, points) == expected
        monkeypatch.undo()


def test_bound_evaluators_are_pure():
    c = ctx()
    assert convex_bound(c, 0.3, 50, 2.0) == convex_bound(c, 0.3, 50, 2.0)
    assert annealed_bound(c, 0.3, 50, 2.0) == annealed_bound(c, 0.3, 50, 2.0)
