import math
import os
import subprocess
import sys

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
    # scipy is imported by the one constructor that calls it, not by `import ngn`
    code = "import sys, ngn; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
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
    """A d = 1 objective whose component i has value values[i] and gradient grads[i]."""
    return FiniteSumObjective(len(values), 1, lambda idx, X: (values[idx], grads[idx][..., None]))


def test_batch_sums_are_sequential():
    # values spread over many magnitudes, where numpy's pairwise sum over the
    # batch axis (from 9 slots on) rounds differently from a slot-by-slot loop
    rng = np.random.default_rng(7)
    values = np.exp(rng.uniform(-30.0, 30.0, 64))
    grads = rng.standard_normal(64) * np.exp(rng.uniform(-30.0, 30.0, 64))
    grads[:4] = -0.0  # a batch of only these sums to +0.0 in a loop begun at 0.0
    obj = table_objective(values, grads)
    X = np.zeros((200, 1))
    differs_from_pairwise = False
    for batch in (9, 12, 16, 33):
        idx = rng.integers(64, size=(200, batch))
        idx[0] = rng.integers(4, size=batch)
        loss, grad = obj.eval_many(idx, X)
        inv = 1.0 / batch
        for s in range(200):
            total, total_grad = 0.0, np.zeros(1)
            for j in range(batch):
                total += values[idx[s, j]]
                total_grad += grads[idx[s, j]]
            assert (loss[s].tobytes(), grad[s].tobytes()) == (
                (total * inv).tobytes(), (total_grad * inv).tobytes())
        differs_from_pairwise |= not np.array_equal(loss, values[idx].sum(axis=1) * inv)
    assert differs_from_pairwise
    assert math.copysign(1.0, grad[0, 0]) == 1.0


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


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 5]), num_classes=2)


def test_finite_difference_gradient_on_quadratic():
    obj = make_quadratic1d(1.5, 0.0, 0.0)
    fd = finite_difference_gradient(obj, 0, np.array([2.0]))
    assert fd[0] == pytest.approx(3.0, rel=1e-7)
