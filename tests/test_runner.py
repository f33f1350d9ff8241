import math

import numpy as np
import pytest

from ngn.objectives import make_quadratic1d, make_two_quadratics
from ngn.runner import (
    Aggregate,
    RunError,
    SamplerSpec,
    TRACE_COLUMNS,
    _draw_indices,
    aggregate_metric,
    averaged_iterate_uniform,
    averaged_iterate_weighted,
    run_sgd,
    trace_to_csv,
)
from ngn.stepsizes import NGN, Constant, StepsizePolicy


def test_determinism_same_seed_identical_traces():
    obj = make_two_quadratics()
    a = run_sgd(obj, NGN(0.5), 500, seed=11)
    b = run_sgd(obj, NGN(0.5), 500, seed=11)
    assert np.array_equal(a.x_final, b.x_final)
    assert np.array_equal(a.loss_batch, b.loss_batch)
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.batch_ids, b.batch_ids)


def test_different_seeds_differ():
    obj = make_two_quadratics()
    a = run_sgd(obj, NGN(0.5), 200, seed=1)
    b = run_sgd(obj, NGN(0.5), 200, seed=2)
    assert not np.array_equal(a.loss_batch, b.loss_batch)


def test_update_correctness_recheckable_from_trace():
    obj = make_two_quadratics()
    trace = run_sgd(obj, NGN(0.7), 50, seed=3, store_iterates=True)
    for k in range(trace.steps):
        _, grad = obj.batch_eval(trace.batch_ids[k], trace.iterates[k])
        step = trace.iterates[k + 1] - trace.iterates[k]
        assert np.allclose(step, -trace.gamma[k] * grad, rtol=0, atol=1e-15)


def test_divergence_flag_on_unstable_gd():
    obj = make_quadratic1d(1.2, 0.0, 0.1)
    trace = run_sgd(obj, Constant(2.0), 100, seed=0, x0=np.array([3.0]))
    assert trace.diverged
    assert trace.diverged_step is not None and trace.diverged_step < 100
    with pytest.raises(ValueError):
        averaged_iterate_uniform(trace)


def test_stable_gd_does_not_diverge():
    obj = make_quadratic1d(1.2, 0.0, 0.1)
    trace = run_sgd(obj, Constant(1.0), 500, seed=0, x0=np.array([3.0]), cadence=500)
    assert not trace.diverged
    assert trace.loss_full[-1] == pytest.approx(0.1, abs=1e-9)


def test_with_replacement_sampling_frequencies():
    n = 10
    rng = np.random.default_rng(0)
    draws = _draw_indices("with_replacement_uniform", n, 1, 10**6, rng)
    freqs = np.bincount(draws.ravel(), minlength=n) / draws.size
    assert np.all(np.abs(freqs - 1.0 / n) <= 5.0 * math.sqrt(n) / 1e3)


def test_epoch_shuffle_covers_every_index():
    n = 7
    rng = np.random.default_rng(1)
    draws = _draw_indices("epoch_shuffle", n, 1, 3 * n, rng).ravel()
    for e in range(3):
        assert sorted(draws[e * n:(e + 1) * n]) == list(range(n))


def test_full_batch_rows():
    rng = np.random.default_rng(0)
    draws = _draw_indices("full_batch", 4, 4, 5, rng)
    assert np.array_equal(draws, np.tile(np.arange(4), (5, 1)))


def test_sampler_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(mode="bogus")
    with pytest.raises(ValueError):
        SamplerSpec(batch_size=0)


def test_aggregate_hand_values():
    agg = aggregate_metric([1.0, 3.0])
    assert agg.mean == pytest.approx(2.0)
    assert agg.std == pytest.approx(math.sqrt(2.0))
    assert agg.ci_half == pytest.approx(2.0 * math.sqrt(2.0) / math.sqrt(2.0))


def test_aggregate_single_seed():
    agg = aggregate_metric([4.2])
    assert agg == Aggregate(mean=4.2, std=0.0, ci_half=0.0)


def test_metric_cadence_steps():
    obj = make_two_quadratics()
    trace = run_sgd(obj, NGN(0.5), 100, seed=0, cadence=25)
    assert list(trace.metric_steps) == [0, 25, 50, 75, 100]
    no_metrics = run_sgd(obj, NGN(0.5), 100, seed=0)
    assert len(no_metrics.metric_steps) == 0


def test_averaged_iterates_match_stored_iterates():
    obj = make_two_quadratics()
    trace = run_sgd(obj, NGN(0.5), 200, seed=5, store_iterates=True)
    expected = trace.iterates[:200].mean(axis=0)
    assert np.allclose(averaged_iterate_uniform(trace), expected, atol=1e-12)
    # NGN has constant sigma_k, so the weighted average equals the uniform one
    assert np.allclose(averaged_iterate_weighted(trace), expected, atol=1e-12)


def test_trace_csv_schema(tmp_path):
    obj = make_two_quadratics()
    trace = run_sgd(obj, NGN(0.5), 10, seed=0, cadence=5)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 11  # header + 10 steps
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[6] != ""  # on-cadence metrics present
    row1 = lines[2].split(",")
    assert row1[6] == "" and row1[7] == "" and row1[8] == ""  # off-cadence empty


def test_trace_csv_cells_parse_as_floats(tmp_path):
    obj = make_two_quadratics()
    trace = run_sgd(obj, NGN(0.5), 20, seed=0, cadence=3)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    rows = path.read_text().splitlines()[1:]
    numeric = [c for c, name in enumerate(TRACE_COLUMNS) if name != "batch_ids"]
    cells = [row.split(",")[c] for row in rows for c in numeric]
    assert all(float(cell) == float(cell) for cell in cells if cell)


def test_policy_error_annotated_with_step():
    obj = make_two_quadratics()

    class Broken(StepsizePolicy):
        def stepsize(self, obs):
            if obs.k == 3:
                raise RuntimeError("boom")
            return 0.1

    with pytest.raises(RunError) as exc:
        run_sgd(obj, Broken(), 10, seed=0)
    assert exc.value.step == 3


def test_x0_pinning_and_default_draw():
    obj = make_two_quadratics()
    pinned = run_sgd(obj, NGN(0.5), 5, seed=0, x0=np.array([2.0]))
    assert pinned.x0[0] == 2.0
    drawn_a = run_sgd(obj, NGN(0.5), 5, seed=9)
    drawn_b = run_sgd(obj, NGN(0.5), 5, seed=9)
    assert drawn_a.x0[0] == drawn_b.x0[0]
