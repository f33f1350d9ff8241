"""A plain-Python reference for one runner step of one row.

`replay` rechecks a row's trace on a closed-form 1-d problem (PROBLEMS) under
any `ngn.specs.POLICIES` entry (ORACLE, keyed by the same names), each step
from the runner's own x^k, batch, loss and squared gradient norm: on its own
trajectory it would drift far from the runner under APS and Armijo, which
amplify rounding. Floats, `math` and batches summed slot by slot share no code
with the runner, and libm's cos need not round as numpy's: values agree
within RTOL, not bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np

from ngn.specs import POLICIES, declaration, parse_call
from ngn.specs import PROBLEMS as PROBLEM_SPECS

# Largest difference between the runner's value and the oracle's, relative
# to the larger of the two and of the size of the terms the value is made
# of: a batch mean's terms, or x and gamma times g's terms in x - gamma * g.
RTOL = 1e-12
THRESHOLD = 1e30  # the runner's divergence threshold, inclusive
F_FLOOR = 1e-12  # the loss floor inside the NGN and GGN formulas


def _nonconvex_sum(n, seed, eps):
    # the builder's centers, from the same stream
    centers = np.random.default_rng(int(seed)).uniform(-2.0, 2.0, int(n)).tolist()
    return [lambda x, c=c: (1.0 - math.cos(x - c) + 0.5 * eps * (x - c) * (x - c),
                            math.sin(x - c) + eps * (x - c)) for c in centers]


# each problem's components x -> (f_i(x), f_i'(x)), in component order
PROBLEMS = {
    "quadratic1d": lambda lam, xstar, fstar: [
        lambda x: (0.5 * lam * (x - xstar) * (x - xstar) + fstar, lam * (x - xstar))],
    "two_quadratics": lambda: [lambda x, c=c: (0.5 * (x - c) * (x - c), x - c)
                               for c in (1.0, -1.0)],
    "nonconvex_sum": _nonconvex_sum,
}


def _ngn(p, o):
    return o.sigma / (1.0 + o.sigma * o.grad_sq / (2.0 * max(o.loss, F_FLOOR)))


def _ggn(p, o):
    f = max(o.loss, F_FLOOR)
    q = {"quadratic": 1.0 / (2.0 * f), "monomial": (p["p"] - 1.0) / (p["p"] * f),
         "neg_log": 1.0}[p["h"]]
    return o.sigma / (1.0 + o.sigma * q * o.grad_sq)


def _sps_max(p, o):
    fstar, scaled = p["fstar"] if o.component_min is None else o.component_min, p["c"] * o.grad_sq
    return min(max(o.loss - fstar, 0.0) / scaled, p["gamma_b"]) if scaled else p["gamma_b"]


def _adagrad_norm(p, o):
    o.state["acc"] = o.state.get("acc", p["delta0"] * p["delta0"]) + o.grad_sq
    return p["eta"] / math.sqrt(o.state["acc"])


def _armijo(p, o):
    """Every trial gamma that the search may stop at: a sufficient-decrease
    margin within RTOL * max(|f|, 1) of zero counts as either outcome."""
    gamma, may_stop, tol = p["gamma_init"], [], RTOL * max(abs(o.loss), 1.0)
    if o.grad_sq == 0.0:
        return (gamma,)
    for _ in range(60):
        margin = o.loss - p["c1"] * gamma * o.grad_sq - o.probe(gamma)
        if margin >= -tol:
            may_stop.append(gamma)
        if margin > tol:
            break
        gamma *= p["backtrack"]
    return tuple(may_stop)


# each policy's gamma_k, NaN where the row is stationary, or a tuple of
# the values it may take
ORACLE = {
    "ngn": _ngn,
    "ggn": _ggn,
    "aps": lambda p, o: o.loss / o.grad_sq if o.grad_sq else math.nan,
    "sps_max": _sps_max,
    "polyak": lambda p, o: max(o.loss - p["fstar"], 0.0) / o.grad_sq if o.grad_sq else math.nan,
    "adagrad_norm": _adagrad_norm,
    "constant": lambda p, o: p["gamma"],
    "armijo": _armijo,
}


def _sigma(p, k):
    """sigma_k: the policy's sigma, annealed under a schedule; NaN for a policy without one."""
    schedule = p.get("schedule", "constant")
    if schedule == "constant":
        return p.get("sigma", math.nan)
    return p["sigma"] / (math.sqrt(k + 1.0) if schedule == "inv_sqrt" else k + 1.0)


def _parse(table, spec):
    """(name, every parameter) of a spec string, defaults included."""
    name, given = parse_call(spec)
    defaults = {k: declaration(v)[0] for k, v in table[name].params.items()}
    return name, {**{k: v for k, v in defaults.items() if not isinstance(v, type)}, **given}


def close(actual, expected, scale=0.0) -> bool:
    """Within RTOL of `expected`, relative to the larger of them and `scale`; NaN is NaN."""
    if not math.isfinite(expected):
        return actual == expected or (math.isnan(actual) and math.isnan(expected))
    return abs(actual - expected) <= RTOL * max(abs(actual), abs(expected), scale)


def replay(problem: str, policy: str, trace, events=None, f_i_star=None, shift=0.0) -> None:
    """Assert that `trace`, one row of a run at cadence 1, takes the oracle's steps.

    `events` maps a step to the gamma the row was made to take there,
    `f_i_star` holds the component minima the run saw (None: unknown), and
    `shift` was subtracted from every component loss.
    """
    name, params = _parse(PROBLEM_SPECS, problem)
    components = PROBLEMS[name](**params)
    name, params = _parse(POLICIES, policy)
    state = {}  # AdaGrad's accumulator
    xs = trace.iterates[:, 0].tolist() + [float(trace.x_final[0])]
    full_batch = len(trace.batch_ids) < trace.steps  # one row that every step uses

    def batch(ids, x):
        """Mean loss and gradient of the batch, and the mean sizes of their terms."""
        terms = [(f - shift, g) for f, g in (components[i](x) for i in ids)]
        return [sum(column, 0.0) / len(ids) for column in
                (*zip(*terms), [abs(f) for f, _ in terms], [abs(g) for _, g in terms])]

    for k in range(trace.diverged_step + 1 if trace.diverged else trace.steps):
        ids, x = trace.batch_ids[0 if full_batch else k].tolist(), xs[k]
        loss, grad_sq, taken = (float(trace.loss_batch[k]), float(trace.grad_sq[k]),
                                float(trace.gamma[k]))
        f, g, f_size, g_size = batch(ids, x)
        assert close(loss, f, f_size) and close(grad_sq, g * g, g_size * g_size), (k, loss, f)
        if not (abs(loss) <= THRESHOLD and grad_sq <= THRESHOLD):  # stopped before the policy
            assert trace.diverged_step == k and math.isnan(taken), k
            assert math.isnan(trace.sigma[k]) and trace.x_final[0] == x, k
            return
        sigma = _sigma(params, k)
        assert close(float(trace.sigma[k]), sigma), (k, trace.sigma[k], sigma)
        gamma = ORACLE[name](params, SimpleNamespace(
            loss=loss if loss > 0.0 else 0.0, grad_sq=grad_sq, sigma=sigma, state=state,
            component_min=None if f_i_star is None else sum(f_i_star[i] for i in ids) / len(ids),
            probe=lambda gamma: batch(ids, x - gamma * g)[0]))
        gamma = (events or {}).get(k, gamma)
        if not isinstance(gamma, tuple) and math.isnan(gamma):  # stationary: no step
            assert trace.stationary[k] and taken == 0.0, k
        else:
            assert not trace.stationary[k], k
            assert any(close(taken, value) for value in
                       (gamma if isinstance(gamma, tuple) else [gamma])), (k, taken, gamma)
        x_new = x - taken * g
        if not math.isfinite(x_new):  # stopped after its step
            assert trace.diverged_step == k and not math.isfinite(xs[k + 1]), k
            return
        assert close(xs[k + 1], x_new, abs(x) + abs(taken) * g_size), (k, xs[k + 1], x_new)
    assert not trace.diverged
