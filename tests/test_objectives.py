import math
import os
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
    value, grad = obj.component_eval(0, np.array([3.0]))
    assert value == pytest.approx(2.0 * 4.0 / 2.0 + 0.3)  # (lam/2)(x-1)^2 + f*
    assert grad[0] == pytest.approx(2.0 * 2.0)
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
    value, grad = obj.full_eval(np.array([2.0]))
    assert value == pytest.approx(2.5)
    assert grad[0] == pytest.approx(2.0)


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


def test_batch_eval_is_mean():
    obj = make_two_quadratics()
    x = np.array([0.7])
    v0, g0 = obj.component_eval(0, x)
    v1, g1 = obj.component_eval(1, x)
    vb, gb = obj.batch_eval([0, 1], x)
    assert vb == pytest.approx((v0 + v1) / 2)
    assert gb[0] == pytest.approx((g0[0] + g1[0]) / 2)


def test_linear_regression_interpolates_without_noise():
    obj = make_linear_regression(4, 20, seed=0, noise_std=0.0)
    assert obj.f_star == pytest.approx(0.0, abs=1e-18)
    assert obj.value(obj.x_star) == pytest.approx(0.0, abs=1e-18)
    grad = obj.gradient(obj.x_star)
    assert np.linalg.norm(grad) < 1e-9


def test_linear_regression_smoothness_constants():
    obj = make_linear_regression(3, 10, seed=1, noise_std=0.2)
    # each component (a^T x - b)^2/2 has Hessian a a^T with norm ||a||^2
    x = np.zeros(3)
    for i in range(obj.n):
        fd = finite_difference_gradient(obj, i, x)
        assert np.allclose(fd, obj.component_eval(i, x)[1], atol=1e-6)
    assert obj.l_max > 0


def test_logistic_gradient_matches_finite_differences():
    data = make_blobs_dataset(n=30, d=4, classes=3, seed=5)
    obj = make_logistic(data, l2=1e-2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(obj.dim)
        i = int(rng.integers(obj.n))
        fd = finite_difference_gradient(obj, i, x)
        analytic = obj.component_eval(i, x)[1]
        assert np.linalg.norm(fd - analytic) <= 1e-5 * max(1.0, np.linalg.norm(analytic))
    assert obj.mu == pytest.approx(1e-2)


def test_logistic_values_nonnegative():
    data = make_blobs_dataset(n=20, d=3, classes=2, seed=2)
    obj = make_logistic(data, l2=0.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(obj.dim) * 3
        value, _ = obj.component_eval(int(rng.integers(obj.n)), x)
        assert value >= 0


def test_nonconvex_components_nonnegative_and_smooth():
    obj = make_nonconvex_sum(6, seed=2)
    assert obj.l_max == pytest.approx(1.5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-5, 5, 1)
        for i in range(obj.n):
            value, _ = obj.component_eval(i, x)
            assert value >= 0


def test_nonconvex_minimum_is_global_on_grid():
    obj = make_nonconvex_sum(8, seed=3)
    grid = np.linspace(obj.x_star[0] - 10, obj.x_star[0] + 10, 2001)
    values = [obj.value(np.array([t])) for t in grid]
    assert obj.f_star <= min(values) + 1e-9
    assert abs(obj.gradient(obj.x_star)[0]) < 1e-7


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
        res = optimize.minimize_scalar(lambda t: obj.value(np.array([t])),
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
            assert (value, grad.tolist()) == (obj.value(p), obj.gradient(p).tolist())
        for batch in (1, min(3, obj.n), obj.n):
            idx = rng.integers(obj.n, size=(7, batch))
            values, grads = obj.eval_many(idx, pts)
            for s in range(7):
                loss, grad = obj.batch_eval(idx[s], pts[s])
                total, total_grad = 0.0, np.zeros(obj.dim)
                for i in idx[s]:
                    v, g = obj.component_eval(i, pts[s])
                    total += v
                    total_grad += g
                inv = 1.0 / batch
                assert (values[s], grads[s].tolist()) == (loss, grad.tolist())
                assert (loss, grad.tolist()) == (total * inv, (total_grad * inv).tolist())



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
        differs_from_pairwise |= not np.array_equal(loss, values[idx].sum(axis=1) * inv)
        slots_last = np.ascontiguousarray(np.moveaxis(grads[idx], 1, -1))
        grad_differs_from_pairwise |= not np.array_equal(grad, slots_last.sum(axis=-1) * inv)
    assert differs_from_pairwise and grad_differs_from_pairwise
    assert all(math.copysign(1.0, g) == 1.0 for g in grad[0])


def test_batch_evaluator_matches_eval_many(monkeypatch):
    rng = np.random.default_rng(8)
    for make in FAMILIES:
        obj = make()
        pts = rng.standard_normal((7, obj.dim))
        for batch in (1, min(3, obj.n)):
            idx = rng.integers(obj.n, size=(7, batch))
            expected = obj.eval_many(idx, pts)
            for block_entries in (objectives.ROW_BLOCK_ENTRIES, 1):
                monkeypatch.setattr(objectives, "ROW_BLOCK_ENTRIES", block_entries)
                got = obj.batch_evaluator(7, batch)(idx, pts)
                monkeypatch.undo()
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))


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
    # a distinct label on every row: the logistic scores grow with rows^2
    path = tmp_path / "labels.svm"
    path.write_text("".join(f"{i} 1:0.5\n" for i in range(11)))
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 120)
    with pytest.raises(ParseError, match="11 rows x 11 distinct labels"):
        load_libsvm(path)
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 121)
    assert load_libsvm(path).num_classes == 11


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 5]), num_classes=2)


def test_finite_difference_gradient_on_quadratic():
    obj = make_quadratic1d(1.5, 0.0, 0.0)
    fd = finite_difference_gradient(obj, 0, np.array([2.0]))
    assert fd[0] == pytest.approx(3.0, rel=1e-7)


@pytest.mark.parametrize("build", [
    lambda: make_linear_regression(d=11, n=9, seed=0),  # n x d = 99, d x d = 121
    lambda: make_linear_regression(d=4, n=30, seed=0),  # n x d = 120
    lambda: make_blobs_dataset(n=30, d=4, classes=3, seed=0),  # n x d = 120
    lambda: make_blobs_dataset(n=40, d=1, classes=3, seed=0),  # n x classes = 120
    lambda: make_nonconvex_sum(9, seed=0),
])
def test_generated_problem_size_caps(monkeypatch, build):
    # caps lowered so that no test builds a large problem
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 100)
    monkeypatch.setattr(objectives, "MAX_NONCONVEX_COMPONENTS", 8)
    with pytest.raises(ValueError, match="cap"):
        build()
    make_linear_regression(d=10, n=10, seed=0)
    make_blobs_dataset(n=33, d=3, classes=3, seed=0)
    make_nonconvex_sum(8, seed=0)
