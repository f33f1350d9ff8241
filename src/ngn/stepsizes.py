"""Stepsize policies behind a single interface.

A policy observes (k, f_i(x^k), ||grad f_i(x^k)||^2) of the R seeds still
running, as (R,) arrays in row order, and the run's sigma_k; it emits
gamma_k of the same shape: gamma > 0, or NaN where the observation is
stationary (zero gradient where the rule is undefined); the runner then
takes a zero step for that seed. Scalars work too, as R = 1 without the
axis. A line search also gets a probe: the batch loss of every running
seed at its trial point x^k - gamma * grad f_i(x^k). When seeds stop, the
runner's `keep_rows` call keeps a policy's per-seed state in row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Floor applied to the loss inside stepsize formulas only; guards the
# division in the harmonic-mean form. Recorded losses are never modified.
F_FLOOR = 1e-12


class PolicyError(ValueError):
    """Invalid policy parameters or specification string."""


class ArmijoSearchError(RuntimeError):
    """Backtracking exhausted without satisfying sufficient decrease."""

    def __init__(self, last_gamma: float):
        super().__init__(f"no acceptable Armijo step; last trial gamma={last_gamma:.3e}")
        self.last_gamma = last_gamma


@dataclass(slots=True)
class StepObservation:
    k: int
    loss: np.ndarray  # (R,) batch losses of the running rows
    grad_sq_norm: np.ndarray  # (R,) squared batch-gradient norms of the running rows
    component_min: Optional[np.ndarray] = None  # (R,) mean f_i* of each running row's batch
    probe: Optional[Callable[[np.ndarray], np.ndarray]] = None  # gamma -> batch loss after the step
    sigma: Optional[np.ndarray] = None  # sigma_k of the policy's sigma_schedule

    def __post_init__(self):
        if np.any(np.less(self.loss, 0.0)):
            raise ValueError("loss must be nonnegative")
        if np.any(np.less(self.grad_sq_norm, 0.0)):
            raise ValueError("grad_sq_norm must be nonnegative")


class StepsizePolicy:
    """Base class; subclasses implement stepsize(obs)."""

    requires_full_batch = False
    requires_component_min = False
    sigma = math.nan  # the constant sigma_k, NaN for a policy without one

    def reset(self) -> None:
        pass

    def keep_rows(self, keep: np.ndarray) -> None:
        """Keep the per-seed state of the seeds flagged in `keep`, in order; none here."""

    def sigma_schedule(self, steps: int, start: int = 0) -> np.ndarray:
        """Regularization parameter sigma_k of steps start .. steps-1; NaN if undefined."""
        return np.full(steps - start, self.sigma)

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        raise NotImplementedError


# numpy 2 ufuncs take a 0-d float64 array faster than a Python float, which
# goes through weak-scalar promotion; the arithmetic is the same
_ONE, _TWO, _F_FLOOR = np.array(1.0), np.array(2.0), np.array(F_FLOOR)


def _ngn_formula(sigma: np.ndarray, loss, grad_sq):
    """NGN's stepsize; `sigma` is best a 0-d array."""
    return sigma / (_ONE + sigma * grad_sq / (_TWO * np.maximum(loss, _F_FLOOR)))


def _over_grad_sq(numerator, grad_sq, at_zero: float = math.nan):
    """numerator / ||g||^2, and `at_zero` where the gradient vanishes."""
    flat = grad_sq == 0.0
    return np.where(flat, at_zero, numerator / np.where(flat, 1.0, grad_sq))


class NGN(StepsizePolicy):
    """gamma = sigma_k / (1 + sigma_k * ||g||^2 / (2 f)), sigma_k read from the observation.

    sigma_k is `sigma` at every step, or under a schedule sigma/sqrt(k+1)
    (inv_sqrt) or sigma/(k+1) (inv_linear).
    """

    SCHEDULES = ("inv_sqrt", "inv_linear")

    def __init__(self, sigma: float, schedule: Optional[str] = None):
        if sigma <= 0:
            raise PolicyError("sigma must be positive")
        if schedule is not None and schedule not in self.SCHEDULES:
            raise PolicyError(f"unknown schedule {schedule!r}")
        self.sigma = float(sigma)
        self.schedule = schedule

    def sigma_schedule(self, steps: int, start: int = 0) -> np.ndarray:
        if self.schedule is None:
            return super().sigma_schedule(steps, start)
        # arange holds k + 1 exactly, and sqrt and division are correctly
        # rounded, so each entry equals sigma / math.sqrt(k + 1) or
        # sigma / (k + 1) exactly, whatever the start
        k1 = np.arange(start + 1.0, steps + 1.0)
        return self.sigma / (np.sqrt(k1) if self.schedule == "inv_sqrt" else k1)

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        return _ngn_formula(obs.sigma, obs.loss, obs.grad_sq_norm)


class GGN(StepsizePolicy):
    """Generalized Gauss-Newton stepsize gamma = sigma / (1 + sigma q ||g||^2).

    Curvature factor q depends on the outer function h: quadratic h gives
    q = 1/(2f) (identical to NGN), a degree-p monomial gives q = (p-1)/(p f),
    and negative log-likelihood gives q = 1.
    """

    KINDS = ("quadratic", "monomial", "neg_log")

    def __init__(self, sigma: float, h_kind: str = "quadratic", p: float = 2.0):
        if sigma <= 0:
            raise PolicyError("sigma must be positive")
        if h_kind not in self.KINDS:
            raise PolicyError(f"unknown h kind {h_kind!r}")
        if h_kind == "monomial" and p <= 1:
            raise PolicyError("monomial exponent p must be > 1")
        self.sigma = float(sigma)
        self.h_kind = h_kind
        self.p = float(p)

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        if self.h_kind == "neg_log":
            q = 1.0
        else:
            f = np.maximum(obs.loss, F_FLOOR)
            if self.h_kind == "quadratic":
                q = 1.0 / (2.0 * f)
            else:
                q = (self.p - 1.0) / (self.p * f)
        return obs.sigma / (1.0 + obs.sigma * q * obs.grad_sq_norm)


class APS(StepsizePolicy):
    """f*-agnostic Polyak stepsize gamma = f / ||g||^2."""

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        return _over_grad_sq(obs.loss, obs.grad_sq_norm)


class SPSMax(StepsizePolicy):
    """Capped stochastic Polyak stepsize min{(f - f_i*)/(c ||g||^2), gamma_b}."""

    requires_component_min = True

    def __init__(self, c: float = 1.0, gamma_b: float = 1.0, fstar: float = 0.0):
        if c <= 0 or gamma_b <= 0:
            raise PolicyError("c and gamma_b must be positive")
        self.c = float(c)
        self.gamma_b = float(gamma_b)
        self.default_fstar = float(fstar)

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        fstar = obs.component_min if obs.component_min is not None else self.default_fstar
        numerator = np.maximum(obs.loss - fstar, 0.0)
        ratio = _over_grad_sq(numerator, self.c * obs.grad_sq_norm, self.gamma_b)
        return np.minimum(ratio, self.gamma_b)


class PolyakKnownFStar(StepsizePolicy):
    """Classical Polyak stepsize (f - f*)/||g||^2 on the full objective."""

    requires_full_batch = True

    def __init__(self, f_star: float = 0.0):
        if f_star < 0:
            raise PolicyError("f_star must be nonnegative")
        self.f_star = float(f_star)

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        return _over_grad_sq(np.maximum(obs.loss - self.f_star, 0.0), obs.grad_sq_norm)


class AdaGradNorm(StepsizePolicy):
    """Scalar AdaGrad gamma_k = eta / sqrt(delta0^2 + sum of ||g||^2).

    One accumulator per seed. It includes the current observation before
    emission, so each seed's emitted sequence is monotone nonincreasing.
    """

    def __init__(self, eta: float, delta0: float):
        if eta <= 0 or delta0 <= 0:
            raise PolicyError("eta and delta0 must be positive")
        self.eta = float(eta)
        self.delta0 = float(delta0)
        self.reset()

    def reset(self) -> None:
        self._acc = self.delta0 * self.delta0

    def keep_rows(self, keep: np.ndarray) -> None:
        if np.ndim(self._acc):  # a scalar until the first step
            self._acc = self._acc[keep]

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        self._acc = self._acc + obs.grad_sq_norm
        return self.eta / np.sqrt(self._acc)


class Constant(StepsizePolicy):
    def __init__(self, gamma: float):
        if gamma <= 0:
            raise PolicyError("gamma must be positive")
        self.gamma = float(gamma)

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        return np.full(np.shape(obs.grad_sq_norm), self.gamma)


class Armijo(StepsizePolicy):
    """Backtracking line search with the sufficient-decrease condition.

    Every seed backtracks on the observation's probe until it accepts; the
    probe is evaluated for all running seeds together. Full-batch only, so
    the probe evaluates the full objective.
    """

    requires_full_batch = True
    MAX_BACKTRACKS = 60

    def __init__(self, c1: float = 1e-4, backtrack: float = 0.5, gamma_init: float = 1.0):
        if not 0 < c1 < 1:
            raise PolicyError("c1 must be in (0, 1)")
        if not 0 < backtrack < 1:
            raise PolicyError("backtrack must be in (0, 1)")
        if gamma_init <= 0:
            raise PolicyError("gamma_init must be positive")
        self.c1 = float(c1)
        self.backtrack = float(backtrack)
        self.gamma_init = float(gamma_init)

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        gamma = np.full(np.shape(obs.grad_sq_norm), self.gamma_init)
        searching = obs.grad_sq_norm != 0.0
        for _ in range(self.MAX_BACKTRACKS):
            if not np.any(searching):
                return gamma
            accepted = obs.probe(gamma) <= obs.loss - self.c1 * gamma * obs.grad_sq_norm
            searching = searching & ~accepted
            gamma = np.where(searching, gamma * self.backtrack, gamma)
        if np.any(searching):
            raise ArmijoSearchError(float(np.max(gamma[searching])))
        return gamma


def stepsize_bounds(sigma: float, l_smooth: float) -> tuple[float, float]:
    """Range [sigma/(1 + sigma L), sigma] of the NGN stepsize on L-smooth f."""
    if sigma <= 0 or l_smooth <= 0:
        raise ValueError("sigma and L must be positive")
    return sigma / (1.0 + sigma * l_smooth), sigma
