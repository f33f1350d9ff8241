import math

import numpy as np
import pytest

from ngn import runner
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
    run_seeds,
    run_sgd,
    trace_to_csv,
)
from ngn.specs import POLICIES, PROBLEMS, build_spec
from ngn.stepsizes import APS, NGN, Constant, StepsizePolicy


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


def test_full_batch_rows(tmp_path):
    # one row that every step uses, not a table of `steps` identical rows
    rng = np.random.default_rng(0)
    draws = _draw_indices("full_batch", 4, 4, 5, rng)
    assert np.array_equal(draws, [np.arange(4)])
    trace = run_sgd(make_two_quadratics(), NGN(0.5), 5, sampler=SamplerSpec("full_batch"))
    assert np.array_equal(trace.batch_ids, [[0, 1]])
    trace_to_csv(trace, tmp_path / "trace.csv")
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["0;1"] * 5


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


@pytest.mark.parametrize("make_trace", [
    lambda: run_sgd(make_two_quadratics(), NGN(0.5), 25, seed=3, cadence=4),
    lambda: run_sgd(make_two_quadratics(), NGN(0.5), 25, seed=3, cadence=4,
                    sampler=SamplerSpec("full_batch")),
    lambda: run_sgd(make_quadratic1d(1.2, 0.0, 0.1), Constant(2.0), 150, x0=np.array([3.0]),
                    cadence=7),  # diverges at step 99
], ids=["uniform", "full_batch", "diverged"])
def test_trace_csv_row_blocks_keep_bytes(tmp_path, monkeypatch, make_trace):
    # at least three blocks of 7 rows write the bytes of one block; the metric
    # cadence 4 divides neither the block nor the 25 steps
    trace = make_trace()
    trace_to_csv(trace, tmp_path / "whole.csv")
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", 7)
    trace_to_csv(trace, tmp_path / "blocked.csv")
    whole = (tmp_path / "whole.csv").read_bytes()
    assert whole == (tmp_path / "blocked.csv").read_bytes()
    assert whole.count(b"\n") - 1 >= 3 * 7


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


def assert_same_trace(a, b):
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other, equal_nan=value.dtype.kind == "f"), name
        else:
            assert value == other, name


LOCKSTEP_PROBLEMS = (
    "quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)",
    "two_quadratics()",
    "linear_regression(d=4, n=12, seed=1, noise_std=0.1)",
    "logistic_blobs(n=30, d=3, classes=3, seed=2)",
    "nonconvex_sum(n=6, seed=1, eps=0.4)",
)
LOCKSTEP_POLICIES = (
    "ngn(sigma=1.0)",
    "adagrad_norm(eta=1.0, delta0=0.1)",
    "sps_max(c=0.5, gamma_b=2.0)",
    "aps()",
    "armijo(c1=0.1, backtrack=0.7, gamma_init=2.0)",
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("policy", LOCKSTEP_POLICIES)
@pytest.mark.parametrize("problem", LOCKSTEP_PROBLEMS)
def test_lockstep_matches_solo_runs(problem, policy):
    obj = build_spec(PROBLEMS, problem)
    if policy.startswith("armijo"):
        sampler = SamplerSpec("full_batch")
    else:
        sampler = SamplerSpec("epoch_shuffle", batch_size=min(2, obj.n))
    kwargs = dict(sampler=sampler, cadence=7, store_iterates=True)
    together = run_seeds(obj, build_spec(POLICIES, policy), 40, seeds=range(4), **kwargs)
    for seed, trace in zip(range(4), together):
        assert_same_trace(trace, run_sgd(obj, build_spec(POLICIES, policy), 40, seed=seed, **kwargs))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lockstep_stationary_rows_match_solo_runs():
    # APS halves x on this quadratic. For seed 1 the gradient underflows to
    # exactly 0 (a stationary row from step 536 on); for the other seeds the
    # loss underflows first, so their steps shrink to 0 instead
    obj = make_quadratic1d(1.0, 0.0, 0.0)
    together = run_seeds(obj, APS(), 600, seeds=range(4), cadence=100)
    assert [int(t.stationary.sum()) for t in together] == [0, 64, 0, 0]
    for seed, trace in zip(range(4), together):
        assert_same_trace(trace, run_sgd(obj, APS(), 600, seed=seed, cadence=100))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lockstep_diverged_rows_match_solo_runs():
    # constant steps that overshoot on some components: seeds 2, 3 and 4
    # diverge, each at its own step, while 0, 1 and 5 converge
    obj = build_spec(PROBLEMS, "linear_regression(d=1, n=6, seed=3)")
    together = run_seeds(obj, Constant(5.0), 300, seeds=range(6), cadence=50,
                         store_iterates=True)
    steps = [t.diverged_step for t in together]
    assert steps[:2] == [None, None] and steps[5] is None
    assert len({steps[2], steps[3], steps[4]} - {None}) == 3
    for trace in together[2:5]:  # x_final is the iterate that tripped the test
        k = trace.diverged_step
        assert obj.batch_eval(trace.batch_ids[k], trace.x_final)[0] == trace.loss_batch[k]
        assert max(trace.loss_batch[k], trace.grad_sq[k]) > 1e30
    for seed, trace in zip(range(6), together):
        solo = run_sgd(obj, Constant(5.0), 300, seed=seed, cadence=50, store_iterates=True)
        assert (trace.diverged_step, trace.x_final.tolist()) == (solo.diverged_step,
                                                                 solo.x_final.tolist())
        assert_same_trace(trace, solo)
