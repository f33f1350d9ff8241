"""Finite-sum objectives: problem suite, dataset ingestion, gradient oracle.

Every objective is an average f(x) = (1/N) sum_i f_i(x) of nonnegative,
smooth components. Objectives are immutable after construction and carry
optional analytic metadata (smoothness constants, minimizers, per-component
minima) used by the theory and verification modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed dataset file."""


def as_point(x, dim: Optional[int] = None) -> np.ndarray:
    """Validate and convert to a float64 vector; entries must be finite."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"point must be a vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite entries")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"point has dimension {p.shape[0]}, expected {dim}")
    return p


# Entries per row block of a vectorized evaluation: many seeds on a large
# problem are evaluated a block of rows at a time, so their temporaries stay
# about as large as one row's. Rows are independent, so blocks do not change
# any value.
ROW_BLOCK_ENTRIES = 1 << 16


def _block_rows(width: int) -> int:
    return max(1, ROW_BLOCK_ENTRIES // width)


def _by_row_blocks(fn, width: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """fn(*arrays) on blocks of at most ROW_BLOCK_ENTRIES // width rows, rejoined."""
    block = _block_rows(width)
    rows = len(arrays[0])
    if rows <= block:
        return fn(*arrays)
    parts = [fn(*(a[i:i + block] for a in arrays)) for i in range(0, rows, block)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _batch_mean(values: np.ndarray) -> np.ndarray:
    """Mean over axis 1, summed one batch slot at a time from +0.0.

    accumulate adds in slot order, the rounding of a sequential loop, which
    np.sum's pairwise order does not keep; adding 0.0 turns a sum of -0.0s
    into the +0.0 that a sum begun at 0.0 gives, and changes nothing else.
    """
    return (np.add.accumulate(values, axis=1)[:, -1] + 0.0) * (1.0 / values.shape[1])


@dataclass(frozen=True)
class Dataset:
    """Dense classification dataset with contiguous integer labels."""

    features: np.ndarray  # (N, d)
    labels: np.ndarray    # (N,) ints in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be an N x d matrix")
        if len(self.labels) != len(self.features):
            raise ValueError("labels/features length mismatch")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if np.any(self.labels < 0) or np.any(self.labels >= self.num_classes):
            raise ValueError("label out of range")


class FiniteSumObjective:
    """f(x) = (1/N) sum_i f_i(x), evaluated for S points at once.

    `evaluator` maps (idx, X) -> (values, grads): idx is an (S, b) array of
    component indices and X an (S, d) array of points, and values[s, j] and
    grads[s, j] are f_i(X[s]) >= 0 and its gradient for i = idx[s, j]. A
    vectorized `full` X -> (f(X[s]), grad f(X[s])) over the rows may be
    supplied for cheap full-objective metrics; otherwise the mean of all N
    components is used. Single-point methods are the one-row cases.
    """

    def __init__(
        self,
        n: int,
        dim: int,
        evaluator: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
        *,
        l_i: Optional[np.ndarray] = None,
        mu: Optional[float] = None,
        x_star: Optional[np.ndarray] = None,
        f_star: Optional[float] = None,
        f_i_star: Optional[np.ndarray] = None,
        full: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None,
        name: str = "",
    ):
        self.n = int(n)
        self.dim = int(dim)
        self._evaluator = evaluator
        self.l_i = None if l_i is None else np.asarray(l_i, dtype=float)
        self.l_max = None if self.l_i is None else float(np.max(self.l_i))
        self.mu = mu
        self.x_star = None if x_star is None else as_point(x_star, dim)
        self.f_star = f_star
        self.f_i_star = None if f_i_star is None else np.asarray(f_i_star, dtype=float)
        self._full = full
        self.name = name or type(self).__name__

    def eval_many(self, idx: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean loss (S,) and mean gradient (S, d) over each row's batch idx[s]."""
        values, grads = _by_row_blocks(self._evaluator, idx.shape[1] * self.dim, idx, X)
        if values.shape[1] == 1:
            return values[:, 0], grads[:, 0]
        return _batch_mean(values), _batch_mean(grads)

    def batch_evaluator(self, rows: int, batch: int):
        """eval_many for at most `rows` rows of `batch` components each.

        At batch 1 with every row in one block, that is the evaluator with
        its one batch slot dropped: eval_many's wrappers would change nothing.
        """
        if batch > 1 or rows > _block_rows(self.dim):
            return self.eval_many
        evaluator = self._evaluator

        def evaluate(idx: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            values, grads = evaluator(idx, X)
            return values[:, 0], grads[:, 0]

        return evaluate

    def full_many(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full objective value (S,) and gradient (S, d) at each row of X."""
        if self._full is not None:
            return _by_row_blocks(self._full, self.n, X)
        return self.eval_many(np.broadcast_to(np.arange(self.n), (len(X), self.n)), X)

    def component_eval(self, i: int, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self.batch_eval([i], x)

    def batch_eval(self, indices: Sequence[int], x: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean loss and mean gradient over a batch (treated as one f_i)."""
        value, grad = self.eval_many(np.asarray(indices)[None, :], np.asarray(x)[None, :])
        return float(value[0]), grad[0]

    def full_eval(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = self.full_many(np.asarray(x)[None, :])
        return float(value[0]), grad[0]

    def value(self, x: np.ndarray) -> float:
        return self.full_eval(x)[0]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.full_eval(x)[1]


def _offsets(X: np.ndarray, centers: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x - c_i for every (row, batch slot) of a 1-d problem: shape (S, b)."""
    return X[:, :1] - centers[idx]


# The 1-d evaluators run once per SGD step on a few numbers, where a ufunc's
# call overhead is most of its cost; numpy 2 takes a 0-d float64 array
# faster than a Python float (weak-scalar promotion), with the same result.
_HALF = np.array(0.5)


def make_quadratic1d(lam: float, x_star: float, f_star: float) -> FiniteSumObjective:
    """Single 1-d quadratic f(x) = (lam/2)(x - x*)^2 + f*."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if f_star < 0:
        raise ValueError("f_star must be nonnegative")
    lam = float(lam)
    xs = float(x_star)
    fs = float(f_star)
    centers = np.array([xs])
    half_lam, lam_0d, fs_0d = np.array(0.5 * lam), np.array(lam), np.array(fs)

    def evaluator(idx, X):
        d = _offsets(X, centers, idx)
        return half_lam * d * d + fs_0d, (lam_0d * d)[..., None]

    return FiniteSumObjective(
        1, 1, evaluator,
        l_i=np.array([lam]), mu=lam,
        x_star=np.array([xs]), f_star=fs, f_i_star=np.array([fs]),
        name="quadratic1d",
    )


def make_two_quadratics() -> FiniteSumObjective:
    """f_1(x) = (x-1)^2/2, f_2(x) = (x+1)^2/2; minimizer 0, f* = 1/2."""
    centers = np.array([1.0, -1.0])

    def evaluator(idx, X):
        d = _offsets(X, centers, idx)
        return _HALF * d * d, d[..., None]

    def full(X):
        x = X[:, 0]
        return 0.5 * (x * x + 1.0), X[:, :1].copy()

    return FiniteSumObjective(
        2, 1, evaluator,
        l_i=np.array([1.0, 1.0]), mu=1.0,
        x_star=np.array([0.0]), f_star=0.5, f_i_star=np.array([0.0, 0.0]),
        full=full,
        name="two_quadratics",
    )


def make_linear_regression(
    d: int, n: int, seed: int, noise_std: float = 0.0
) -> FiniteSumObjective:
    """Least squares on Gaussian features with a hidden planted predictor.

    Components f_i(x) = (a_i^T x - b_i)^2 / 2. With noise_std = 0 the planted
    predictor interpolates. Minimizer is the exact least-squares solution.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    x_planted = rng.standard_normal(d)
    b = a @ x_planted
    if noise_std > 0:
        b = b + noise_std * rng.standard_normal(n)

    x_star, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = a @ x_star - b
    f_star = 0.5 * float(residual @ residual) / n
    hess = (a.T @ a) / n
    mu = float(np.linalg.eigvalsh(hess)[0]) if d <= n else 0.0

    def evaluator(idx, X):
        rows = a[idx]  # (S, b, d)
        r = np.vecdot(rows, X[:, None, :]) - b[idx]
        return 0.5 * r * r, r[..., None] * rows

    def full(X):
        # matrix-vector products per row, so each row rounds like a @ x
        r = (a @ X[:, :, None])[..., 0] - b
        return 0.5 * np.vecdot(r, r) / n, (r[:, None, :] @ a)[:, 0, :] / n

    return FiniteSumObjective(
        n, d, evaluator,
        l_i=np.einsum("ij,ij->i", a, a), mu=max(mu, 0.0),
        x_star=x_star, f_star=f_star, f_i_star=np.zeros(n),
        full=full,
        name="linear_regression",
    )


def _softmax_ce(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy loss and dL/dscores over the last axis, numerically stable."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1)
    onehot = labels[..., None] == np.arange(scores.shape[-1])
    # a sum of one entry and zeros is that entry exactly
    picked = np.where(onehot, shifted, 0.0).sum(axis=-1)
    return np.log(total) - picked, exp / total[..., None] - onehot


def make_logistic(dataset: Dataset, l2: float = 0.0) -> FiniteSumObjective:
    """Softmax cross-entropy of a linear model with optional L2 penalty.

    The point is the C x d weight matrix flattened row-major. Per-component
    smoothness uses the conservative bound ||a_i||^2 + l2.
    """
    if len(dataset.features) == 0:
        raise ValueError("empty dataset")
    if l2 < 0:
        raise ValueError("l2 must be nonnegative")
    a = dataset.features
    y = dataset.labels
    n, d = a.shape
    c = dataset.num_classes
    dim = c * d

    def evaluator(idx, X):
        w = X.reshape(len(X), c, d)
        rows = a[idx]  # (S, b, d)
        # one matrix-vector product w @ a_i per component, as a single eval rounds
        scores = (w[:, None] @ rows[..., None])[..., 0]
        loss, dscores = _softmax_ce(scores, y[idx])
        loss = np.maximum(loss, 0.0)
        grad = dscores[..., :, None] * rows[..., None, :]  # outer(dscores, a_i)
        if l2 > 0:
            loss = loss + (0.5 * l2 * np.vecdot(X, X))[:, None]
            grad = grad + l2 * w[:, None]
        return loss, grad.reshape(len(X), idx.shape[1], dim)

    def full(X):
        w = X.reshape(len(X), c, d)
        scores = a @ w.transpose(0, 2, 1)  # (S, n, c)
        loss, dscores = _softmax_ce(scores, y)
        loss = loss.mean(axis=-1)
        grad = (dscores.transpose(0, 2, 1) @ a) / n
        if l2 > 0:
            loss = loss + 0.5 * l2 * np.vecdot(X, X)
            grad = grad + l2 * w
        return np.maximum(loss, 0.0), grad.reshape(len(X), dim)

    return FiniteSumObjective(
        n, dim, evaluator,
        l_i=np.einsum("ij,ij->i", a, a) + l2,
        mu=l2 if l2 > 0 else 0.0,
        full=full,
        name="logistic",
    )


def make_nonconvex_sum(n: int, seed: int, eps: float = 0.5) -> FiniteSumObjective:
    """1-d nonconvex, nonnegative components 1 - cos(x - c_i) + (eps/2)(x - c_i)^2.

    Each component is smooth with L_i = 1 + eps. The global minimum of the
    average is located deterministically on a grid plus local refinement.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    from scipy import optimize  # here only: importing it costs more than most runs

    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, n)
    one, half_eps, eps_0d = np.array(1.0), np.array(0.5 * eps), np.array(eps)

    def evaluator(idx, X):
        d = _offsets(X, centers, idx)
        return (one - np.cos(d)) + half_eps * d * d, (np.sin(d) + eps_0d * d)[..., None]

    inv_n = 1.0 / n

    def full(X):
        d = X[:, :1] - centers  # (S, n)
        value = (1.0 - np.cos(d) + 0.5 * eps * d * d).sum(axis=1) * inv_n
        grad = (np.sin(d) + eps * d).sum(axis=1) * inv_n
        return value, grad[:, None]

    grid = np.linspace(centers.min() - 2 * math.pi, centers.max() + 2 * math.pi, 4001)
    values = np.mean(
        1.0 - np.cos(grid[:, None] - centers) + 0.5 * eps * (grid[:, None] - centers) ** 2,
        axis=1,
    )
    x0 = grid[int(np.argmin(values))]
    res = optimize.minimize_scalar(
        lambda t: float(full(np.array([[t]]))[0][0]),
        bracket=(x0 - 0.1, x0, x0 + 0.1) if values.size else None,
        method="brent",
    )
    x_star = np.array([float(res.x)])
    f_star = float(res.fun)

    return FiniteSumObjective(
        n, 1, evaluator,
        l_i=np.full(n, 1.0 + eps),
        x_star=x_star, f_star=f_star,
        full=full,
        name="nonconvex_sum",
    )


# Largest rows x features a LIBSVM file may densify to: 2^27 float64 entries
# are 1 GiB, and one stray index near 1e9 would otherwise ask for far more.
MAX_DENSE_ENTRIES = 1 << 27


def load_libsvm(path) -> Dataset:
    """Parse LIBSVM sparse text ("label idx:val ...", 1-based indices)."""
    labels_raw: list[float] = []
    rows: list[dict[int, float]] = []
    max_index = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric label {parts[0]!r}")
            entries: dict[int, float] = {}
            for token in parts[1:]:
                if ":" not in token:
                    raise ParseError(f"line {lineno}: malformed entry {token!r}")
                idx_s, val_s = token.split(":", 1)
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ParseError(f"line {lineno}: non-numeric entry {token!r}")
                if idx < 1:
                    raise ParseError(f"line {lineno}: index {idx} is not 1-based")
                entries[idx] = val
                max_index = max(max_index, idx)
            labels_raw.append(label)
            rows.append(entries)
    if not rows:
        raise ParseError("no samples")
    if len(rows) * max_index > MAX_DENSE_ENTRIES:
        raise ParseError(f"{len(rows)} rows x {max_index} features exceed the dense size "
                         f"cap of {MAX_DENSE_ENTRIES} entries")
    features = np.zeros((len(rows), max_index))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            features[r, idx - 1] = val
    distinct = sorted(set(labels_raw))
    mapping = {v: i for i, v in enumerate(distinct)}
    labels = np.array([mapping[v] for v in labels_raw], dtype=int)
    return Dataset(features=features, labels=labels, num_classes=len(distinct))


def write_libsvm(dataset: Dataset, path) -> None:
    """Write every entry (including zeros) so parse/write round-trips exactly."""
    with open(path, "w") as fh:
        for row, label in zip(dataset.features, dataset.labels):
            entries = " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row))
            fh.write(f"{int(label)} {entries}\n")


def finite_difference_gradient(
    obj: FiniteSumObjective, i: int, x: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of component i; independent oracle."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = as_point(x, obj.dim)
    grad = np.empty(obj.dim)
    for j in range(obj.dim):
        step = h * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        grad[j] = (obj.component_eval(i, xp)[0] - obj.component_eval(i, xm)[0]) / (2 * step)
    return grad


def compute_deltas(obj: FiniteSumObjective) -> tuple[float, float]:
    """Interpolation gap and position gap of a finite-sum objective.

    delta_int = (1/N) sum_i [f_i(x*) - f_i*],  delta_pos = (1/N) sum_i f_i*.
    Needs the analytic x* and f_i* of the objective; ValueError without them.
    """
    if obj.x_star is None or obj.f_i_star is None:
        raise ValueError(f"{obj.name} has no analytic x* and f_i*; its deltas are unknown")
    x_star, f_i_star = obj.x_star, obj.f_i_star
    at_star = np.array([obj.component_eval(i, x_star)[0] for i in range(obj.n)])
    delta_int = float(np.mean(at_star - f_i_star))
    delta_pos = float(np.mean(f_i_star))
    return max(delta_int, 0.0), max(delta_pos, 0.0)


def make_blobs_dataset(n: int, d: int, classes: int, seed: int, spread: float = 2.0) -> Dataset:
    """Gaussian blobs around random class centers; synthetic classification."""
    if n < classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    centers = spread * rng.standard_normal((classes, d))
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    features = centers[labels] + rng.standard_normal((n, d))
    return Dataset(features=features, labels=labels, num_classes=classes)
