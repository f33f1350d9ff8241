import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ngn import objectives
from ngn.objectives import (
    Dataset,
    ParseError,
    as_point,
    FiniteSumObjective,
    compute_deltas,
    finite_difference_gradient,
    load_libsvm,
    make_blobs_dataset,
    make_linear_regression,
    make_logistic,
    make_nonconvex_sum,
    make_quadratic1d,
    make_two_quadratics,
    write_libsvm,
)


def test_quadratic1d_hand_values():
    obj = make_quadratic1d(2.0, 1.0, 0.3)
    value, grad = obj.eval_many(np.array([[0]]), np.array([[3.0]]))
    assert value[0] == pytest.approx(2.0 * 4.0 / 2.0 + 0.3)  # (lam/2)(x-1)^2 + f*
    assert grad[0, 0] == pytest.approx(2.0 * 2.0)
    assert obj.l_max == 2.0
    assert obj.f_star == 0.3


def test_quadratic1d_validation():
    with pytest.raises(ValueError):
        make_quadratic1d(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        make_quadratic1d(1.0, 0.0, -0.1)


def test_two_quadratics_metadata():
    obj = make_two_quadratics()
    assert obj.n == 2 and obj.dim == 1
    assert obj.l_max == 1.0 and obj.mu == 1.0
    assert obj.f_star == 0.5 and obj.x_star[0] == 0.0
    # f(x) = ((x-1)^2 + (x+1)^2)/4 = (x^2 + 1)/2
    value, grad = obj.full_many(np.array([[2.0]]))
    assert value[0] == pytest.approx(2.5)
    assert grad[0, 0] == pytest.approx(2.0)


def test_two_quadratics_deltas():
    obj = make_two_quadratics()
    delta_int, delta_pos = compute_deltas(obj)
    assert delta_int == pytest.approx(0.5, abs=1e-12)
    assert delta_pos == pytest.approx(0.0, abs=1e-12)


def test_compute_deltas_needs_analytic_minimizers():
    blobs = make_logistic(make_blobs_dataset(n=12, d=2, classes=3, seed=0))
    with pytest.raises(ValueError, match="no analytic"):
        compute_deltas(blobs)  # no x*
    with pytest.raises(ValueError, match="no analytic"):
        compute_deltas(make_nonconvex_sum(4, seed=0))  # x* but no f_i*


def test_import_loads_no_scipy():
    # no module of ngn imports scipy: importing it costs more than most runs
    code = "import sys, ngn; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_run_path_loads_scipy(tmp_path):
    # every problem built with its defaults, and a nonconvex rate check, in a fresh process
    path = tmp_path / "blobs.svm"
    write_libsvm(make_blobs_dataset(n=12, d=2, classes=3, seed=0), path)
    code = (
        "import sys\n"
        "from ngn import verify\n"
        "from ngn.specs import PROBLEMS, build_spec\n"
        f"required = {{'quadratic1d': {{'lam': 1.0}}, 'logistic_file': {{'path': {str(path)!r}}}}}\n"
        "for name in PROBLEMS:\n"
        "    build_spec(PROBLEMS, name + '()', **required.get(name, {}))\n"
        "verify.check_nonconvex_rate(steps=50, n_seeds=2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_linear_regression_interpolates_without_noise():
    obj = make_linear_regression(4, 20, seed=0, noise_std=0.0)
    assert obj.f_star == pytest.approx(0.0, abs=1e-18)
    value, grad = obj.full_many(obj.x_star[None])
    assert value[0] == pytest.approx(0.0, abs=1e-18)
    assert np.linalg.norm(grad[0]) < 1e-9


def test_linear_regression_smoothness_constants():
    obj = make_linear_regression(3, 10, seed=1, noise_std=0.2)
    # each component (a^T x - b)^2/2 has Hessian a a^T with norm ||a||^2
    idx, X = np.arange(obj.n), np.zeros((obj.n, 3))
    fd = finite_difference_gradient(obj, idx, X)
    assert np.allclose(fd, obj.eval_many(idx[:, None], X)[1], atol=1e-6)
    assert obj.l_max > 0


def test_logistic_gradient_matches_finite_differences():
    data = make_blobs_dataset(n=30, d=4, classes=3, seed=5)
    obj = make_logistic(data, l2=1e-2)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, obj.dim))
    idx = rng.integers(obj.n, size=5)
    fd = finite_difference_gradient(obj, idx, X)
    analytic = obj.eval_many(idx[:, None], X)[1]
    for fd_p, analytic_p in zip(fd, analytic):
        assert np.linalg.norm(fd_p - analytic_p) <= 1e-5 * max(1.0, np.linalg.norm(analytic_p))
    assert obj.mu == pytest.approx(1e-2)


def test_logistic_values_nonnegative():
    data = make_blobs_dataset(n=20, d=3, classes=2, seed=2)
    obj = make_logistic(data, l2=0.0)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, obj.dim)) * 3
    values, _ = obj.eval_many(rng.integers(obj.n, size=(10, 1)), X)
    assert np.all(values >= 0)


def test_nonconvex_components_nonnegative_and_smooth():
    obj = make_nonconvex_sum(6, seed=2)
    assert obj.l_max == pytest.approx(1.5)
    X = np.random.default_rng(0).uniform(-5, 5, (20, 1))
    # every component at every point: one row per (point, component)
    values, _ = obj.eval_many(np.tile(np.arange(obj.n), 20)[:, None], np.repeat(X, obj.n, axis=0))
    assert np.all(values >= 0)


def test_nonconvex_minimum_is_global_on_grid():
    obj = make_nonconvex_sum(8, seed=3)
    grid = np.linspace(obj.x_star[0] - 10, obj.x_star[0] + 10, 2001)
    values = obj.full_many(grid[:, None])[0]
    assert obj.f_star <= values.min() + 1e-9
    assert abs(obj.full_many(obj.x_star[None])[1][0, 0]) < 1e-7


def test_nonconvex_build_memory_is_bounded():
    # the grid search runs a block of grid rows at a time; all 4001 rows at
    # once would take about 300 MB at n = 5000
    make_nonconvex_sum(8, 0)
    tracemalloc.start()
    try:
        make_nonconvex_sum(5000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_nonconvex_minimum_matches_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    cases = [(n, seed, eps) for n in (1, 2, 8, 64) for seed in range(5) for eps in (0.1, 0.5, 2.0)]
    for n, seed, eps in cases + [(1000, 0, 0.5)]:
        obj = make_nonconvex_sum(n, seed, eps)
        # the grid search over all rows at once, then scipy's Brent from its best point
        centers = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
        grid = np.linspace(centers.min() - 2 * math.pi, centers.max() + 2 * math.pi, 4001)
        d = grid[:, None] - centers
        x0 = grid[int(np.argmin(np.mean(1.0 - np.cos(d) + 0.5 * eps * d ** 2, axis=1)))]
        res = optimize.minimize_scalar(lambda t: obj.full_many(np.array([[t]]))[0][0],
                                       bracket=(x0 - 0.1, x0, x0 + 0.1), method="brent")
        assert obj.x_star.tobytes() == np.array([float(res.x)]).tobytes()
        assert float(obj.f_star).hex() == float(res.fun).hex()


@pytest.mark.parametrize("f, a, x, b", [
    (lambda t: math.cosh(t - 0.3), -1.0, 0.0, 1.5),
    (lambda t: t ** 4 - 3.0 * t + 1.0, 0.0, 1.0, 2.0),
    (lambda t: math.exp(t) - 2.0 * t, -1.0, 0.5, 3.0),
])
def test_brent_steps_as_scipy(f, a, x, b):
    optimize = pytest.importorskip("scipy.optimize")
    ours, theirs = [], []
    x_min, f_min = objectives._brent(lambda t: ours.append(t) or f(t), a, x, b)
    res = optimize.minimize_scalar(lambda t: theirs.append(t) or f(t),
                                   bracket=(a, x, b), method="brent")
    assert ours == theirs
    # golden-section steps alone take 40-43 evaluations to shrink these
    # brackets to the tolerance: fewer means parabolic steps were taken
    assert len(ours) < 25
    assert (x_min.hex(), f_min.hex()) == (float(res.x).hex(), float(res.fun).hex())


def test_brent_rejects_a_bad_bracket():
    with pytest.raises(ValueError, match="not below"):
        objectives._brent(lambda t: t * t, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="not below"):
        objectives._brent(lambda t: -t * t, -1.0, 0.0, 1.0)


FAMILIES = (
    lambda: make_quadratic1d(1.5, 0.5, 0.2),
    make_two_quadratics,
    lambda: make_linear_regression(4, 12, seed=1, noise_std=0.1),
    lambda: make_logistic(make_blobs_dataset(n=30, d=3, classes=3, seed=2), l2=1e-2),
    lambda: make_nonconvex_sum(5, seed=1),
)


def test_full_many_matches_loop():
    # the vectorized evaluations round exactly as one point at a time does
    rng = np.random.default_rng(3)
    for make in FAMILIES:
        obj = make()
        pts = rng.standard_normal((7, obj.dim))
        values, grads = obj.full_many(pts)
        for p, value, grad in zip(pts, values, grads):
            one_value, one_grad = obj.full_many(p[None])
            assert (value, grad.tolist()) == (one_value[0], one_grad[0].tolist())
        for batch in (1, min(3, obj.n), obj.n):
            idx = rng.integers(obj.n, size=(7, batch))
            values, grads = obj.eval_many(idx, pts)
            for s in range(7):
                loss, grad = obj.eval_many(idx[s][None], pts[s][None])
                total, total_grad = 0.0, np.zeros(obj.dim)
                for i in idx[s]:
                    v, g = obj.eval_many(np.array([[i]]), pts[s][None])
                    total += v[0]
                    total_grad += g[0]
                inv = 1.0 / batch
                assert (values[s], grads[s].tolist()) == (loss[0], grad[0].tolist())
                assert (loss[0], grad[0].tolist()) == (total * inv, (total_grad * inv).tolist())



def test_row_blocks_keep_values(monkeypatch):
    # one row per block gives the same bits as all rows at once
    rng = np.random.default_rng(4)
    for make in FAMILIES:
        obj = make()
        pts = rng.standard_normal((7, obj.dim))
        idx = rng.integers(obj.n, size=(7, min(3, obj.n)))
        whole = (*obj.full_many(pts), *obj.eval_many(idx, pts))
        monkeypatch.setattr(objectives, "ROW_BLOCK_ENTRIES", 1)
        blocked = (*obj.full_many(pts), *obj.eval_many(idx, pts))
        monkeypatch.undo()
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

    seen = []

    def fn(a, b):
        seen.append(len(a))
        return a.sum(axis=1), b

    monkeypatch.setattr(objectives, "ROW_BLOCK_ENTRIES", 9)
    out = objectives._by_row_blocks(fn, 3, np.ones((10, 3)), np.arange(10))
    assert seen == [3, 3, 3, 1]
    assert out[0].tolist() == [3.0] * 10 and out[1].tolist() == list(range(10))

def test_slot_blocks_keep_batch_sums(monkeypatch):
    # a batch evaluated a block of slots at a time sums in the whole batch's order
    rng = np.random.default_rng(5)
    for make in FAMILIES:
        obj = make()
        pts = rng.standard_normal((3, obj.dim))
        idx = rng.integers(obj.n, size=(3, 7))
        whole = obj.eval_many(idx, pts)
        for slots in (1, 2, 3):
            monkeypatch.setattr(objectives, "ROW_BLOCK_ENTRIES", slots * obj.dim)
            blocked = obj.eval_many(idx, pts)
            monkeypatch.undo()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, blocked)), slots


def test_large_batch_memory_is_bounded():
    # 20000 slots of a 200-dim logistic problem: one block of slots takes
    # about ROW_BLOCK_ENTRIES entries, where the whole batch took 70 MB
    obj = make_logistic(make_blobs_dataset(n=20_000, d=20, classes=10, seed=0))
    idx = np.arange(obj.n)[None]
    X = np.random.default_rng(0).standard_normal((1, obj.dim))
    obj.eval_many(idx[:, :2], X)
    tracemalloc.start()
    try:
        obj.eval_many(idx, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_finite_difference_gradient_matches_one_point_loop(monkeypatch):
    # the moved points as rows of one call round as one point at a time
    rng = np.random.default_rng(9)
    for make in FAMILIES:
        obj = make()
        X = rng.standard_normal((4, obj.dim))
        idx = rng.integers(obj.n, size=4)
        fd = finite_difference_gradient(obj, idx, X)
        monkeypatch.setattr(objectives, "ROW_BLOCK_ENTRIES", 2 * obj.dim ** 2)  # a point a block
        assert finite_difference_gradient(obj, idx, X).tobytes() == fd.tobytes()
        monkeypatch.undo()
        for p in range(4):
            def value(x):
                return obj.eval_many(idx[p:p + 1, None], x[None])[0][0]

            for j in range(obj.dim):
                step = 1e-6 * (1.0 + abs(X[p, j]))
                plus, minus = X[p].copy(), X[p].copy()
                plus[j] += step
                minus[j] -= step
                assert fd[p, j] == (value(plus) - value(minus)) / (2 * step)
    with pytest.raises(ValueError, match="need idx"):
        finite_difference_gradient(obj, idx[:3], X)
    with pytest.raises(ValueError, match="non-finite"):
        finite_difference_gradient(obj, idx, np.full_like(X, np.nan))


def table_objective(values: np.ndarray, grads: np.ndarray) -> FiniteSumObjective:
    """An objective whose component i has value values[i] and gradient grads[i] (a d-vector)."""
    return FiniteSumObjective(len(values), grads.shape[1], lambda idx, X: (values[idx], grads[idx]))


@pytest.mark.parametrize("d", [1, 2, 3, 100])
def test_batch_sums_are_sequential(d):
    # values spread over many magnitudes, where numpy's pairwise sum over an
    # innermost batch axis (from 9 slots on) rounds differently from a
    # slot-by-slot loop
    rng = np.random.default_rng(7)
    values = np.exp(rng.uniform(-30.0, 30.0, 64))
    grads = rng.standard_normal((64, d)) * np.exp(rng.uniform(-30.0, 30.0, (64, d)))
    grads[:4] = -0.0  # a batch of only these sums to +0.0 in a loop begun at 0.0
    obj = table_objective(values, grads)
    X = np.zeros((200, d))
    differs_from_pairwise = grad_differs_from_pairwise = False
    for batch in (9, 12, 16, 33):
        idx = rng.integers(64, size=(200, batch))
        idx[0] = rng.integers(4, size=batch)
        loss, grad = obj.eval_many(idx, X)
        inv = 1.0 / batch
        for s in range(200):
            total, total_grad = 0.0, np.zeros(d)
            for j in range(batch):
                total += values[idx[s, j]]
                total_grad += grads[idx[s, j]]
            assert (loss[s].tobytes(), grad[s].tobytes()) == (
                (total * inv).tobytes(), (total_grad * inv).tobytes())
        for slots in (1, 4, 5):  # blocks of slots continue the same sums
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(objectives, "ROW_BLOCK_ENTRIES", slots * d)
                blocked = obj.eval_many(idx, X)
            assert (blocked[0].tobytes(), blocked[1].tobytes()) == (loss.tobytes(), grad.tobytes())
        differs_from_pairwise |= not np.array_equal(loss, values[idx].sum(axis=1) * inv)
        slots_last = np.ascontiguousarray(np.moveaxis(grads[idx], 1, -1))
        grad_differs_from_pairwise |= not np.array_equal(grad, slots_last.sum(axis=-1) * inv)
    assert differs_from_pairwise and grad_differs_from_pairwise
    assert all(math.copysign(1.0, g) == 1.0 for g in grad[0])


def test_one_block_eval_many_matches_blocks_of_one_entry(monkeypatch):
    # at the default block size each batch is one evaluator call; at one entry
    # a block, each slot of each row is a call of its own
    rng = np.random.default_rng(8)
    for make in FAMILIES:
        obj = make()
        calls, evaluator = [], obj._evaluator
        obj._evaluator = lambda idx, X: calls.append(idx.size) or evaluator(idx, X)
        pts = rng.standard_normal((7, obj.dim))
        for batch in (1, min(3, obj.n)):
            idx = rng.integers(obj.n, size=(7, batch))
            one_block = obj.eval_many(idx, pts)
            monkeypatch.setattr(objectives, "ROW_BLOCK_ENTRIES", 1)
            blocked = obj.eval_many(idx, pts)
            monkeypatch.undo()
            assert calls == [7 * batch] + [1] * (7 * batch)
            calls.clear()
            assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                       for a, b in zip(one_block, blocked))


def test_sum_in_numpy_order_matches_np_sum():
    rng = np.random.default_rng(11)
    differs_from_sequential = False
    for c in [*range(1, 141), 255, 256, 257, 300, 1000]:
        x = rng.standard_normal((40, c)) * np.exp(rng.uniform(-30.0, 30.0, (40, c)))
        x[0] = -0.0  # alone these sum to +0.0
        x[1, ::2], x[1, 1::2] = -0.0, 0.0
        x[2, 0] = np.nan
        x[3, c // 2] = np.inf
        x[4, 0], x[4, -1] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            want = x.sum(axis=-1)
            got = objectives._sum_in_numpy_order(x.T)  # the columns, one term each
            in_order = x[:, 0] + 0.0
            for j in range(1, c):
                in_order = in_order + x[:, j]
        assert got.tobytes() == want.tobytes(), c
        differs_from_sequential |= not np.array_equal(in_order, want, equal_nan=True)
    assert differs_from_sequential


def reference_logistic_full(dataset: Dataset, l2: float):
    """The full logistic objective as one reduction over the class axis per quantity."""
    a, y, c = dataset.features, dataset.labels, dataset.num_classes
    n, d = a.shape

    def full(X):
        w = X.reshape(len(X), c, d)
        scores = a @ w.transpose(0, 2, 1)  # (S, n, c)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        total = exp.sum(axis=-1)
        onehot = y[..., None] == np.arange(c)
        picked = np.where(onehot, shifted, 0.0).sum(axis=-1)
        loss = (np.log(total) - picked).mean(axis=-1)
        grad = ((exp / total[..., None] - onehot).transpose(0, 2, 1) @ a) / n
        if l2 > 0:
            loss = loss + 0.5 * l2 * np.vecdot(X, X)
            grad = grad + l2 * w
        return np.maximum(loss, 0.0), grad.reshape(len(X), c * d)

    return full


def test_logistic_full_matches_class_axis_reductions():
    rng = np.random.default_rng(12)
    for classes in (1, 2, 3, 5, 7, 8, 9, 16, 17, 129):
        data = make_blobs_dataset(n=2 * classes + 40, d=3, classes=classes, seed=classes)
        for l2 in (0.0, 1e-4):
            obj = make_logistic(data, l2=l2)
            reference = reference_logistic_full(data, l2)
            for scale in (0.3, 30.0, 1e3, 1e308):  # 1e308 gives inf and NaN scores
                for S in (1, 3):
                    with np.errstate(all="ignore"):
                        X = rng.standard_normal((S, obj.dim)) * scale
                        got, want = obj.full_many(X), reference(X)
                    assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want)), (
                        classes, l2, scale, S)


def reference_softmax_ce(scores, labels):
    """The batch softmax as first written: a bool one-hot, a where-sum and a bool subtract."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1)
    onehot = labels[..., None] == np.arange(scores.shape[-1])
    picked = np.where(onehot, shifted, 0.0).sum(axis=-1)
    return np.log(total) - picked, exp / total[..., None] - onehot


def reference_logistic(dataset: Dataset, l2: float) -> FiniteSumObjective:
    """The logistic objective on reference_softmax_ce and reference_logistic_full."""
    a, y, c = dataset.features, dataset.labels, dataset.num_classes
    n, d = a.shape

    def evaluator(idx, X):
        w = X.reshape(len(X), c, d)
        rows = a[idx]
        scores = (w[:, None] @ rows[..., None])[..., 0]
        loss, dscores = reference_softmax_ce(scores, y[idx])
        loss = np.maximum(loss, 0.0)
        grad = dscores[..., :, None] * rows[..., None, :]
        if l2 > 0:
            loss = loss + (0.5 * l2 * np.vecdot(X, X))[:, None]
            grad = grad + l2 * w[:, None]
        return loss, grad.reshape(len(X), idx.shape[1], c * d)

    return FiniteSumObjective(n, c * d, evaluator, full=reference_logistic_full(dataset, l2))


# n, d, classes of the bit-for-bit logistic fixtures: n = 2 classes + 40 and
# d = 3, and one shape (n not a multiple of 8, 12 classes or more) where on
# OpenBLAS w @ a.T into class-major rows rounds otherwise than a @ w.T
LOGISTIC_BIT_SHAPES = [(2 * c + 40, 3, c) for c in (1, 2, 3, 5, 8, 9, 17)] + [(210, 10, 12)]


@pytest.mark.parametrize("n, d, classes", LOGISTIC_BIT_SHAPES)
def test_logistic_matches_the_reference_softmax_bit_for_bit(n, d, classes):
    rng = np.random.default_rng(classes)
    data = make_blobs_dataset(n=n, d=d, classes=classes, seed=classes)
    for l2 in (0.0, 1e-4):
        obj, reference = make_logistic(data, l2=l2), reference_logistic(data, l2)
        # 1e150 and 1e308 overflow the scores to inf and NaN
        for scale in (0.3, 30.0, 1e3, 1e150, 1e308):
            for S in (1, 3, 20):
                with np.errstate(all="ignore"):
                    X = rng.standard_normal((S, obj.dim)) * scale
                    pairs = [(obj.full_many(X), reference.full_many(X))]
                    for batch in (1, 5, 16):
                        idx = rng.integers(0, n, (S, batch))
                        pairs.append((obj.eval_many(idx, X), reference.eval_many(idx, X)))
                for got, want in pairs:
                    assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want)), (
                        l2, scale, S)


def full_peak(obj, X) -> int:
    tracemalloc.start()
    try:
        obj.full_many(X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_logistic_full_memory_is_bounded():
    # n x classes = 200000 entries per point: one point per block, where 20
    # points at once held three (20, n, c) temporaries, 92 MiB
    obj = make_logistic(make_blobs_dataset(n=1000, d=2, classes=200, seed=1))
    X = np.random.default_rng(0).standard_normal((20, obj.dim))
    assert full_peak(obj, X) < 8 * 2**20


def test_logistic_full_keeps_its_work_arrays():
    # a second call of the same shape allocates no (S, n, c) array
    obj = make_logistic(make_blobs_dataset(n=2000, d=20, classes=5, seed=1))
    X = 0.3 * np.random.default_rng(0).standard_normal((3, obj.dim))
    obj.full_many(X)
    assert full_peak(obj, X) < 2 * X.shape[0] * obj.n * 5 * 8


def test_logistic_full_returns_fresh_arrays():
    # results stay as returned whatever the calls after them, and equal a
    # fresh objective's: the kept work arrays are never returned or aliased
    data = make_blobs_dataset(n=2000, d=20, classes=5, seed=1)
    obj = make_logistic(data)
    X = 0.3 * np.random.default_rng(1).standard_normal((20, obj.dim))
    first = obj.full_many(X[:3])
    kept = [a.copy() for a in first]
    later = [obj.full_many(X[:rows]) for rows in (20, 1, 3)]
    for got in [first, *later]:
        for g in got:
            assert not any(np.shares_memory(g, h) for other in [first, *later]
                           if other is not got for h in other)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, kept))
    fresh = make_logistic(data).full_many(X[:3])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, fresh))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(later[2], fresh))


def test_as_point_validation():
    assert as_point([1.0, 2.0], 2).shape == (2,)
    with pytest.raises(ValueError):
        as_point([1.0], 2)
    with pytest.raises(ValueError):
        as_point([np.nan, 0.0], 2)


def test_libsvm_round_trip(tmp_path):
    data = make_blobs_dataset(n=25, d=4, classes=3, seed=7)
    path = tmp_path / "blobs.svm"
    write_libsvm(data, path)
    again = load_libsvm(path)
    assert np.array_equal(again.labels, data.labels)
    assert np.array_equal(again.features, data.features)
    assert again.num_classes == data.num_classes


def test_libsvm_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("1 1:0.5\n2 oops\n")
    with pytest.raises(ParseError) as exc:
        load_libsvm(path)
    assert "2" in str(exc.value)


def test_libsvm_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "utf16.svm"
    path.write_bytes(b"0 1:0.25\n\xff\xfe1 1:0.5\n")
    with pytest.raises(ParseError, match="^line 2: byte 0xff is not UTF-8 text$"):
        load_libsvm(path)


@pytest.mark.parametrize("text, line, char", [
    ("1 1:1_000 2:\u0663\n0 1_0:2\n", 1, "_"), ("1 1:1\n0 1_0:2\n", 2, "_"),
    ("1 1:1 2:\u0663\n", 1, "\u0663"), ("1_0 1:1\n", 1, "_"), ("1 1:1\u00a02:3\n", 1, "\u00a0"),
    ("1\x1c1:2\x1f2:3\n", 1, "\x1c"), ("0 1:0.5\t2:1\n1\x0b1:2\n", 2, "\x0b"),
    ("1 1:2\x0c2:3\n", 1, "\x0c"), ("1 1:2\x1f\n", 1, "\x1f"), ("1 1:2\x00\n", 1, "\x00"),
    ("1 1:2\x7f\n", 1, "\x7f"), ("1 1:2\r0 2:3\n", 1, "\r"), ("0 1:1\r\n1 1:2\r", 2, "\r"),
    ("0 1:1\n1 1:2\r\r\n", 2, "\r")])
def test_libsvm_takes_ascii_numbers_only(tmp_path, text, line, char):
    # int and float take "1_000", "1_0" and the Arabic-Indic digit three; the
    # no-break space would split the line, and so would \x0b, \x0c and \x1c-\x1f,
    # where LIBSVM splits on space and tab only: "1\x1c1:2\x1f2:3" would load as
    # label 1 with features 2.0 and 3.0. A tab separates, as on line 1 of the \x0b case.
    # Only \n ends a line, and a \r is its line's unless it comes right before the
    # \n: "1 1:2\r0 2:3" would load as two samples
    path = tmp_path / "digits.svm"
    path.write_bytes(text.encode())
    message = f"line {line}: {char!r} is not LIBSVM text"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_libsvm(path)


def test_libsvm_lines_may_end_in_crlf(tmp_path):
    # as LIBSVM's own reader takes them, whether or not the last line ends
    lf, crlf = tmp_path / "lf.svm", tmp_path / "crlf.svm"
    lf.write_bytes(b"0 1:0.5\n1 2:3\n2 1:1")
    crlf.write_bytes(b"0 1:0.5\r\n1 2:3\r\n2 1:1")
    a, b = load_libsvm(lf), load_libsvm(crlf)
    assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
    assert a.features.tolist() == [[0.5, 0.0], [0.0, 3.0], [1.0, 0.0]]


def test_libsvm_rejects_repeated_index(tmp_path):
    # a dict of entries would keep the last value, 3.0, without a word
    path = tmp_path / "repeat.svm"
    path.write_text("0 1:0.5 2:1.0\n1 1:2.0 1:3.0\n")
    with pytest.raises(ParseError, match="line 2: index 1 appears twice"):
        load_libsvm(path)


def test_libsvm_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.svm"
    path.write_text("")
    with pytest.raises(ParseError):
        load_libsvm(path)


def test_libsvm_dense_size_cap_checked_before_allocating(tmp_path, monkeypatch):
    # two rows whose largest index would densify to 2 x 7e7 entries (1.1 GB)
    path = tmp_path / "wide.svm"
    path.write_text("1 1:0.5\n2 70000000:1.0\n")
    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        if math.prod(np.atleast_1d(shape)) > objectives.MAX_DENSE_ENTRIES:
            raise AssertionError(f"allocated {shape}")
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    with pytest.raises(ParseError, match="2 rows x 70000000 features"):
        load_libsvm(path)
    path.write_text("1 1:0.5\n2 3:1.0\n")  # under the cap it still loads
    assert load_libsvm(path).features.shape == (2, 3)


@pytest.mark.parametrize("label", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_libsvm_rejects_non_finite_label(tmp_path, label):
    # on its own, each nan label would be a class of its own
    path = tmp_path / "labels.svm"
    path.write_text(f"1 1:0.5\n{label} 1:1.0\n{label} 1:2.0\n")
    with pytest.raises(ParseError, match="line 2: non-finite label"):
        load_libsvm(path)


def test_libsvm_rows_times_labels_cap(tmp_path, monkeypatch):
    # a distinct label on every row: the logistic scores grow with rows^2;
    # 11 x 11 label entries and 11 x 1 feature entries
    path = tmp_path / "labels.svm"
    path.write_text("".join(f"{i} 1:0.5\n" for i in range(11)))
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 131)
    with pytest.raises(ParseError, match="11 rows x 11 distinct labels"):
        load_libsvm(path)
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 132)
    assert load_libsvm(path).num_classes == 11


def test_libsvm_caps_features_and_labels_together(tmp_path, monkeypatch):
    # 10 x 10 feature entries and 10 x 10 label entries, each within the cap
    # of 100 but not together, as make_blobs_dataset(10, 10, 10, 0) is not
    path = tmp_path / "square.svm"
    path.write_text("".join(f"{i} 10:0.5\n" for i in range(10)))
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 100)
    with pytest.raises(ParseError, match="10 rows x 10 features and 10 rows x 10 distinct"):
        load_libsvm(path)
    with pytest.raises(ValueError, match="cap"):
        make_blobs_dataset(10, 10, 10, 0)
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 200)
    assert load_libsvm(path).features.shape == (10, 10)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_libsvm_rejects_non_finite_value(tmp_path, value):
    path = tmp_path / "values.svm"
    path.write_text(f"1 1:0.5\n2 1:1.0 2:{value}\n")
    with pytest.raises(ParseError, match=f"line 2: non-finite value '2:{value}'"):
        load_libsvm(path)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 5]), num_classes=2)


def test_finite_difference_gradient_on_quadratic():
    obj = make_quadratic1d(1.5, 0.0, 0.0)
    fd = finite_difference_gradient(obj, np.array([0]), np.array([[2.0]]))
    assert fd[0, 0] == pytest.approx(3.0, rel=1e-7)


@pytest.mark.parametrize("build", [
    lambda: make_linear_regression(d=11, n=9, seed=0),  # n x d = 99, d x d = 121
    lambda: make_linear_regression(d=4, n=30, seed=0),  # n x d = 120
    lambda: make_blobs_dataset(n=30, d=4, classes=3, seed=0),  # n x d = 120
    lambda: make_blobs_dataset(n=40, d=1, classes=3, seed=0),  # n x classes = 120
    lambda: make_nonconvex_sum(9, seed=0),
    # each array within the cap, not their sum
    lambda: make_linear_regression(d=8, n=9, seed=0),  # n x d = 72, d x d = 64
    lambda: make_blobs_dataset(n=25, d=3, classes=3, seed=0),  # n x d = n x classes = 75
])
def test_generated_problem_size_caps(monkeypatch, build):
    # caps lowered so that no test builds a large problem
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 100)
    monkeypatch.setattr(objectives, "MAX_NONCONVEX_COMPONENTS", 8)
    with pytest.raises(ValueError, match="cap"):
        build()
    make_linear_regression(d=5, n=15, seed=0)  # 75 + 25 entries
    make_blobs_dataset(n=20, d=2, classes=3, seed=0)  # 40 + 60 entries
    make_nonconvex_sum(8, seed=0)
