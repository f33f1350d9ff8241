"""Stepsize policies behind a single interface.

A policy observes (k, f_i(x^k), ||grad f_i(x^k)||^2) of the R seeds still
running, as (R,) arrays in row order, and their sigma_k; it emits
gamma_k of the same shape: gamma > 0, or NaN where the observation is
stationary (zero gradient where the rule is undefined); the runner then
takes a zero step for that seed. Scalars work too, as R = 1 without the
axis. A line search also gets a probe: the batch loss of every running
seed at its trial point x^k - gamma * grad f_i(x^k). When seeds stop, the
runner's `keep_rows` call keeps a policy's per-row parameters and state in
row order. `ngn.specs.POLICIES` declares and checks every parameter; the
classes check none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Floor applied to the loss inside stepsize formulas only; guards the
# division in the harmonic-mean form. Recorded losses are never modified.
F_FLOOR = 1e-12


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
    sigma: Optional[np.ndarray] = None  # (R,) sigma_k of the running rows, from sigma_schedule

    def __post_init__(self):
        if np.any(np.less(self.loss, 0.0)):
            raise ValueError("loss must be nonnegative")
        if np.any(np.less(self.grad_sq_norm, 0.0)):
            raise ValueError("grad_sq_norm must be nonnegative")


class StepsizePolicy:
    """Base class; subclasses implement stepsize(obs).

    A policy holds its parameters as attributes of their names: a string is
    shared by every row, and a number is a float, or an (S,) array of one
    value per row of the run. `reset` sets every row's values, and
    `keep_rows` keeps those of the running rows, in row order.
    """

    requires_full_batch = False
    requires_component_min = False
    sigma = math.nan  # the constant sigma_k, NaN for a policy without one

    def __init__(self, **params):
        self.params = params
        self.reset()

    def reset(self) -> None:
        """Every row's parameters, and no per-row state: a run starts."""
        vars(self).update(self.params)

    def keep_rows(self, keep: np.ndarray) -> None:
        """Keep the per-row parameters and state of the rows flagged in `keep`, in order."""
        for name, value in self.params.items():
            if np.ndim(value):
                setattr(self, name, getattr(self, name)[keep])

    def row_params(self, n_rows: int) -> list[tuple]:
        """Each of `n_rows` rows' values of the parameters that hold one per row;
        ValueError unless each holds one value per row or one for all."""
        columns = [value for value in self.params.values() if np.ndim(value)]
        for value in columns:
            if np.shape(value) != (n_rows,):
                raise ValueError(f"a policy parameter holds {np.size(value)} values "
                                 f"for {n_rows} rows")
        return list(zip(*(value.tolist() for value in columns))) if columns else [()] * n_rows

    def sigma_schedule(self, steps: int, start: int = 0) -> np.ndarray:
        """Regularization parameter sigma_k of steps start .. steps-1, a column of
        the running rows' values when sigma holds one per row; NaN if undefined."""
        return np.full((steps - start,) + np.shape(self.sigma), self.sigma)

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        raise NotImplementedError


# numpy 2 ufuncs take a 0-d float64 array faster than a Python float, which
# goes through weak-scalar promotion; the arithmetic is the same
_ONE, _TWO, _F_FLOOR = np.array(1.0), np.array(2.0), np.array(F_FLOOR)


def _ngn_formula(sigma: np.ndarray, loss, grad_sq):
    """NGN's stepsize of each row; `sigma` is an array, as an observation holds it."""
    return sigma / (_ONE + sigma * grad_sq / (_TWO * np.maximum(loss, _F_FLOOR)))


def _over_grad_sq(numerator, grad_sq, at_zero: float = math.nan):
    """numerator / ||g||^2, and `at_zero` where the gradient vanishes."""
    flat = grad_sq == 0.0
    return np.where(flat, at_zero, numerator / np.where(flat, 1.0, grad_sq))


class NGN(StepsizePolicy):
    """gamma = sigma_k / (1 + sigma_k * ||g||^2 / (2 f)), sigma_k read from the observation.

    sigma_k follows the schedule: `sigma` at every step (constant),
    sigma/sqrt(k+1) (inv_sqrt) or sigma/(k+1) (inv_linear).
    """

    SCHEDULES = ("constant", "inv_sqrt", "inv_linear")
    schedule = "constant"

    def sigma_schedule(self, steps: int, start: int = 0) -> np.ndarray:
        if self.schedule == "constant":
            return super().sigma_schedule(steps, start)
        # arange holds k + 1 exactly, and sqrt and division are correctly
        # rounded, so each entry equals sigma / math.sqrt(k + 1) or
        # sigma / (k + 1) exactly, whatever the start
        k1 = np.arange(start + 1.0, steps + 1.0)
        if np.ndim(self.sigma):  # a column, which each row's sigma divides
            k1 = k1[:, None]
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

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        if self.h == "neg_log":
            q = 1.0
        else:
            f = np.maximum(obs.loss, F_FLOOR)
            if self.h == "quadratic":
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

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        fstar = obs.component_min if obs.component_min is not None else self.fstar
        numerator = np.maximum(obs.loss - fstar, 0.0)
        ratio = _over_grad_sq(numerator, self.c * obs.grad_sq_norm, self.gamma_b)
        return np.minimum(ratio, self.gamma_b)


class PolyakKnownFStar(StepsizePolicy):
    """Classical Polyak stepsize (f - f*)/||g||^2 on the full objective."""

    requires_full_batch = True

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        return _over_grad_sq(np.maximum(obs.loss - self.fstar, 0.0), obs.grad_sq_norm)


class AdaGradNorm(StepsizePolicy):
    """Scalar AdaGrad gamma_k = eta / sqrt(delta0^2 + sum of ||g||^2).

    One accumulator per seed. It includes the current observation before
    emission, so each seed's emitted sequence is monotone nonincreasing.
    """

    def reset(self) -> None:
        super().reset()
        self._acc = self.delta0 * self.delta0

    def keep_rows(self, keep: np.ndarray) -> None:
        super().keep_rows(keep)
        if np.ndim(self._acc):  # a scalar until the first step, unless delta0 is per row
            self._acc = self._acc[keep]

    def stepsize(self, obs: StepObservation) -> np.ndarray:
        self._acc = self._acc + obs.grad_sq_norm
        return self.eta / np.sqrt(self._acc)


class Constant(StepsizePolicy):
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
    if not (0 < sigma < math.inf and 0 < l_smooth < math.inf):
        raise ValueError("sigma and L must be positive and finite")
    return sigma / (1.0 + sigma * l_smooth), sigma
