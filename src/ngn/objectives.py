"""Finite-sum objectives: problem suite, dataset ingestion, gradient oracle.

Every objective is an average f(x) = (1/N) sum_i f_i(x) of nonnegative,
smooth components. Objectives are immutable after construction and carry
optional analytic metadata (smoothness constants, minimizers, per-component
minima) used by the theory and verification modules.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

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


# Largest number of float64 entries a generated problem or a loaded LIBSVM
# file may hold in its dense arrays together: rows x features of a dataset,
# d x d of a Hessian, and rows x classes (distinct labels), the size of the
# logistic objective's label table and of its full objective's work array
# per point.
# 2^27 entries are 1 GiB; one stray LIBSVM index near 1e9, a distinct label
# on every row, or a mistyped size would otherwise ask for far more.
MAX_DENSE_ENTRIES = 1 << 27


def _check_dense(**sizes: int) -> None:
    """ValueError if the named array sizes together exceed MAX_DENSE_ENTRIES."""
    if sum(sizes.values()) > MAX_DENSE_ENTRIES:
        named = " and ".join(f"{name.replace('_', ' x ')} = {n}" for name, n in sizes.items())
        raise ValueError(f"{named} entries together exceed the dense size cap of "
                         f"{MAX_DENSE_ENTRIES}")


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


def _slot_sum(values: np.ndarray, total: Optional[np.ndarray] = None) -> np.ndarray:
    """total + values[:, 0] + values[:, 1] + ..., one batch slot at a time.

    Without `total` the sum starts at values[:, 0]. numpy reduces an axis
    that is not the innermost one element by element in axis order, the
    rounding of a sequential loop; an innermost axis (values, or gradients
    of a 1-d problem) it sums pairwise, so there accumulate keeps the slot
    order.
    """
    if total is not None:
        values = np.concatenate([total[:, None], values], axis=1)
    if values.ndim == 3 and values.shape[2] > 1:
        return np.add.reduce(values, axis=1)
    return np.add.accumulate(values, axis=1)[:, -1]


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
    supplied for cheap full-objective metrics, with `full_width`, the
    entries its largest temporaries take per row (N by default): `full_many`
    calls it on blocks of at most ROW_BLOCK_ENTRIES // full_width rows.
    Without `full` the mean of all N components is used. `eval_many` and
    `full_many` are the only entry points: a single point or component is
    a one-row call, and rows are evaluated independently, so a row's
    values do not depend on the rows beside it.
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
        full_width: Optional[int] = None,
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
        self._full_width = self.n if full_width is None else int(full_width)
        self.name = name or type(self).__name__

    def eval_many(self, idx: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean loss (S,) and mean gradient (S, d) over each row's batch idx[s].

        Each batch is summed one slot at a time, as a loop begun at 0.0 sums
        it: adding 0.0 at the end turns a sum of -0.0s into +0.0 and changes
        nothing else. Rows and slots that fit one block of ROW_BLOCK_ENTRIES
        are one evaluator call; more are evaluated a block of slots at a
        time, each of those a block of rows at a time, each block's sum going
        on from the last one's total, so memory stays bounded and the order
        is kept.
        """
        batch, dim = idx.shape[1], self.dim
        if idx.size * dim <= ROW_BLOCK_ENTRIES:
            values, grads = self._evaluator(idx, X)
            if batch == 1:
                return values[:, 0], grads[:, 0]
            value_sum, grad_sum = _slot_sum(values), _slot_sum(grads)
        else:
            slots = _block_rows(dim)
            value_sum = grad_sum = None
            for a in range(0, batch, slots):
                values, grads = _by_row_blocks(self._evaluator, min(batch - a, slots) * dim,
                                               idx[:, a:a + slots], X)
                if batch == 1:
                    return values[:, 0], grads[:, 0]
                value_sum, grad_sum = _slot_sum(values, value_sum), _slot_sum(grads, grad_sum)
        inv = np.array(1.0 / batch)
        return (value_sum + _ZERO) * inv, (grad_sum + _ZERO) * inv

    def full_many(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full objective value (S,) and gradient (S, d) at each row of X."""
        if self._full is not None:
            return _by_row_blocks(self._full, self._full_width, X)
        return self.eval_many(np.broadcast_to(np.arange(self.n), (len(X), self.n)), X)


def _offsets(X: np.ndarray, centers: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x - c_i for every (row, batch slot) of a 1-d problem: shape (S, b)."""
    return X - centers[idx]


# The 1-d and logistic evaluators run once per SGD step on a few numbers,
# where a ufunc's call overhead is most of its cost; numpy 2 takes a 0-d
# float64 array faster than a Python float (weak-scalar promotion), with the
# same result.
_HALF = np.array(0.5)
_ZERO = np.array(0.0)


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
    if d < 1 or n < 1 or noise_std < 0:
        raise ValueError(f"need d, n >= 1 and noise_std >= 0, got {d}, {n} and {noise_std}")
    _check_dense(n_d=n * d, d_d=d * d)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    x_planted = rng.standard_normal(d)
    b = a @ x_planted
    if noise_std > 0:
        with np.errstate(over="ignore"):
            b = b + noise_std * rng.standard_normal(n)
            if not np.isfinite(b @ b):  # the least-squares residual is no longer than b
                raise ValueError(f"noise_std = {noise_std} overflows the squared targets")

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
    c = scores.shape[-1]
    shifted = scores - scores.max(axis=-1, keepdims=True)
    # flat positions of each row's label score in the fresh, contiguous
    # arrays shifted and exp. A sum of that score and zeros would turn -0.0
    # into +0.0, but log(total) is never -0.0, so the loss does not see it
    at = labels + np.arange(0, labels.size * c, c).reshape(labels.shape)
    picked = shifted.take(at)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1)
    exp /= total[..., None]
    exp.reshape(-1)[at] -= 1.0
    return np.log(total) - picked, exp


def _sum_in_numpy_order(parts: Sequence[np.ndarray]) -> np.ndarray:
    """parts[0] + parts[1] + ..., rounded as np.sum rounds a contiguous axis.

    numpy sums pairwise from +0.0: fewer than 8 terms in order; up to 128
    terms in 8 running sums r_j of terms j, j + 8, ..., combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    order; more terms as two halves, the first of a length rounded down to a
    multiple of 8. Starting each running sum at 0.0 + term changes only the
    sign of zero partial sums, which the total does not keep.
    """
    n = len(parts)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_in_numpy_order(parts[:half]) + _sum_in_numpy_order(parts[half:])
    if n < 8:
        total = parts[0] + _ZERO
        for p in parts[1:]:
            total += p
        return total
    r = [p + _ZERO for p in parts[:8]]
    whole = n - n % 8
    for i in range(8, whole, 8):
        for j in range(8):
            r[j] += parts[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for p in parts[whole:]:
        total += p
    return total


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
        loss = np.maximum(loss, _ZERO)
        grad = dscores[..., :, None] * rows[..., None, :]  # outer(dscores, a_i)
        if l2 > 0:
            loss = loss + (0.5 * l2 * np.vecdot(X, X))[:, None]
            grad = grad + l2 * w[:, None]
        return loss, grad.reshape(len(X), idx.shape[1], dim)

    # flat positions of each row's label score in an (n, c) block, and 1.0
    # there in an (n, c) table of zeros
    label_at = np.arange(n) * c + y
    onehot = (y[:, None] == np.arange(c)).astype(float)
    # (rows, n, c) work array of the largest block so far, filled in place:
    # arrays this size allocated afresh on every call take new pages from the
    # OS each time. No returned array is a view of it; two threads must not
    # evaluate one logistic objective at once.
    work = [np.empty((0, n, c))]

    def full(X):
        S = len(X)
        if S > len(work[0]):
            work[0] = np.empty((S, n, c))
        scores = work[0][:S]
        w = X.reshape(S, c, d)
        np.matmul(a, w.transpose(0, 2, 1), out=scores)  # (S, n, c)
        # the max and the sum over the short class axis take one ufunc call
        # per class column, where a reduction pays numpy's overhead per row,
        # and round as _softmax_ce's. Everything stays in this layout: w @ a.T
        # into class-major rows need not round as a @ w.T, and dscores' layout
        # decides how the gradient matmul rounds
        top = scores[..., 0].copy()
        for j in range(1, c):
            np.maximum(top, scores[..., j], out=top)
        scores -= top[..., None]
        flat = scores.reshape(S, n * c)
        picked = flat.take(label_at, axis=1)  # the label's shifted score, as in _softmax_ce
        np.exp(scores, out=scores)
        total = _sum_in_numpy_order(scores.transpose(2, 0, 1))
        loss = (np.log(total) - picked).mean(axis=-1)
        scores /= total[..., None]
        scores -= onehot  # p - 0.0 is p
        grad = (scores.transpose(0, 2, 1) @ a) / n
        if l2 > 0:
            loss = loss + 0.5 * l2 * np.vecdot(X, X)
            grad = grad + l2 * w
        return np.maximum(loss, _ZERO), grad.reshape(S, dim)

    return FiniteSumObjective(
        n, dim, evaluator,
        l_i=np.einsum("ij,ij->i", a, a) + l2,
        mu=l2 if l2 > 0 else 0.0,
        full=full,
        full_width=n * c,
        name="logistic",
    )


def _brent(f: Callable[[float], float], a: float, x: float, b: float) -> tuple[float, float]:
    """Local minimum (x, f(x)) of f in the bracket a < x < b, by Brent's method.

    This is scipy.optimize.minimize_scalar(f, bracket=(a, x, b),
    method="brent") step for step: the same tolerances, golden ratio, branch
    order and update order, so it returns the same floats. ValueError unless
    f(x) is below f(a) and f(b).
    """
    tol, mintol, cg, maxiter = 1.48e-8, 1.0e-11, 0.3819660, 500
    fa, fx, fb = f(a), f(x), f(b)
    if not (fx < fa and fx < fb):
        raise ValueError(f"f({x!r}) is not below f at both ends of ({a!r}, {b!r})")
    w = v = x
    fw = fv = fx
    deltax = rat = 0.0
    for _ in range(maxiter):
        tol1 = tol * abs(x) + mintol
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x  # golden section step
            rat = cg * deltax
        else:  # try a parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if p > tmp2 * (a - x) and p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = cg * deltax
        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = f(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
    return x, fx


# Largest component count of nonconvex_sum: locating its minimum costs
# 4001 * n cosines before the first step, about 1.5 s at this cap
MAX_NONCONVEX_COMPONENTS = 10_000


def make_nonconvex_sum(n: int, seed: int, eps: float = 0.5) -> FiniteSumObjective:
    """1-d nonconvex, nonnegative components 1 - cos(x - c_i) + (eps/2)(x - c_i)^2.

    Each component is smooth with L_i = 1 + eps. The global minimum of the
    average is located deterministically on a grid plus local refinement.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_NONCONVEX_COMPONENTS:
        raise ValueError(f"n = {n} exceeds the component cap of {MAX_NONCONVEX_COMPONENTS}")
    if eps <= 0:
        raise ValueError("eps must be positive")

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

    def grid_values(points):
        d = points[:, None] - centers
        return (np.mean(1.0 - np.cos(d) + 0.5 * eps * d ** 2, axis=1),)

    grid = np.linspace(centers.min() - 2 * math.pi, centers.max() + 2 * math.pi, 4001)
    # no |x - c_i| on the grid exceeds its width, so no component there exceeds
    # 2 + (eps/2) width^2: an eps that overflows their sum is rejected
    width = float(grid[-1] - grid[0])
    if not math.isfinite(n * (2.0 + 0.5 * eps * width * width)):
        raise ValueError(f"eps = {eps} overflows the objective on its grid")
    # a block of grid rows at a time: all 4001 rows at once take 4001 x n entries
    values, = _by_row_blocks(grid_values, n, grid)
    x0 = float(grid[int(np.argmin(values))])
    x_star, f_star = _brent(lambda t: float(full(np.array([[t]]))[0][0]),
                            x0 - 0.1, x0, x0 + 0.1)

    return FiniteSumObjective(
        n, 1, evaluator,
        l_i=np.full(n, 1.0 + eps),
        x_star=np.array([x_star]), f_star=f_star,
        full=full,
        name="nonconvex_sum",
    )


def text_lines(path, newline: Optional[str] = None) -> Iterator[tuple[int, str]]:
    r"""The number and text of each line of the UTF-8 text file at `path`, its line break
    dropped; ParseError at the first line with a byte that is not UTF-8. `newline` is
    `open`'s: with "\n", only \n ends a line, and a \r stays in its line unless it comes
    right before the \n."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode()
            except UnicodeEncodeError as exc:  # a byte that reading escaped
                raise ParseError(f"line {lineno}: byte {ord(line[exc.start]) - 0xDC00:#04x} "
                                 "is not UTF-8 text") from None
            yield lineno, line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")


# A character that LIBSVM text does not hold: its numbers are ASCII, where Python's int
# and float would take digit-group underscores and other scripts' digits, and LIBSVM
# splits on space and tab only, where str.split also splits on \x0b, \x0c and \x1c-\x1f
_NOT_LIBSVM = re.compile(r"[^\t -^`-~]")  # all but tab and printable ASCII, "_" excluded


def load_libsvm(path) -> Dataset:
    r"""Parse LIBSVM sparse text ("label idx:val ...", 1-based indices) in UTF-8.

    A line ends at \n or \r\n, as in LIBSVM's own reader. A line with an
    underscore, a character that is not ASCII or an ASCII control character
    other than tab, a lone \r included, is a ParseError (`_NOT_LIBSVM`).
    """
    labels_raw: list[float] = []
    rows: list[dict[int, float]] = []
    max_index = 0
    for lineno, line in text_lines(path, newline="\n"):
        bad = _NOT_LIBSVM.search(line)
        if bad:
            raise ParseError(f"line {lineno}: {bad.group()!r} is not LIBSVM text")
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric label {parts[0]!r}")
        if not math.isfinite(label):
            raise ParseError(f"line {lineno}: non-finite label {parts[0]!r}")
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
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite value {token!r}")
            if idx < 1:
                raise ParseError(f"line {lineno}: index {idx} is not 1-based")
            if idx in entries:
                raise ParseError(f"line {lineno}: index {idx} appears twice")
            entries[idx] = val
            max_index = max(max_index, idx)
        labels_raw.append(label)
        rows.append(entries)
    if not rows:
        raise ParseError("no samples")
    distinct = sorted(set(labels_raw))
    if len(rows) * (max_index + len(distinct)) > MAX_DENSE_ENTRIES:
        raise ParseError(f"{len(rows)} rows x {max_index} features and {len(rows)} rows x "
                         f"{len(distinct)} distinct labels together exceed the dense size "
                         f"cap of {MAX_DENSE_ENTRIES} entries")
    features = np.zeros((len(rows), max_index))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            features[r, idx - 1] = val
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
    obj: FiniteSumObjective, idx: np.ndarray, X: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference gradients (P, d) of component idx[p] at X[p]; independent oracle.

    Coordinate j of row p moves by h (1 + |X[p, j]|) each way; the 2 d P
    moved points are the rows of one eval_many call per block of points.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    X = np.asarray(X, dtype=float)
    idx = np.asarray(idx)
    if X.ndim != 2 or X.shape[1] != obj.dim or idx.shape != X.shape[:1]:
        raise ValueError(f"need idx (P,) and points (P, {obj.dim}), got {idx.shape} and {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points have non-finite entries")
    d = obj.dim
    j = np.arange(d)

    def central_differences(idx: np.ndarray, X: np.ndarray) -> tuple[np.ndarray]:
        step = h * (1.0 + np.abs(X))
        plus = np.repeat(X[:, None, :], d, axis=1)  # (P, d, d): plus[p, j] moves coordinate j
        minus = plus.copy()
        plus[:, j, j] += step
        minus[:, j, j] -= step
        points = np.stack([plus, minus], axis=1).reshape(-1, d)
        values = obj.eval_many(np.repeat(idx, 2 * d)[:, None], points)[0].reshape(len(X), 2, d)
        return ((values[:, 0] - values[:, 1]) / (2 * step),)

    # a block of points at a time: each point moves to 2 d points of d entries
    return _by_row_blocks(central_differences, 2 * d * d, idx, X)[0]


def compute_deltas(obj: FiniteSumObjective) -> tuple[float, float]:
    """Interpolation gap and position gap of a finite-sum objective.

    delta_int = (1/N) sum_i [f_i(x*) - f_i*],  delta_pos = (1/N) sum_i f_i*.
    Needs the analytic x* and f_i* of the objective; ValueError without them.
    """
    if obj.x_star is None or obj.f_i_star is None:
        raise ValueError(f"{obj.name} has no analytic x* and f_i*; its deltas are unknown")
    # f_i(x*) of every component: one row per component
    at_star = obj.eval_many(np.arange(obj.n)[:, None],
                            np.broadcast_to(obj.x_star, (obj.n, obj.dim)))[0]
    delta_int = float(np.mean(at_star - obj.f_i_star))
    delta_pos = float(np.mean(obj.f_i_star))
    return max(delta_int, 0.0), max(delta_pos, 0.0)


def make_blobs_dataset(n: int, d: int, classes: int, seed: int, spread: float = 2.0) -> Dataset:
    """Gaussian blobs around random class centers; synthetic classification."""
    if d < 1 or not 1 <= classes <= n:  # a sample per class at least
        raise ValueError(f"need d >= 1 and 1 <= classes <= n, got {d}, {classes} and {n}")
    _check_dense(n_d=n * d, n_classes=n * classes)
    rng = np.random.default_rng(seed)
    centers = spread * rng.standard_normal((classes, d))
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    features = centers[labels] + rng.standard_normal((n, d))
    return Dataset(features=features, labels=labels, num_classes=classes)
