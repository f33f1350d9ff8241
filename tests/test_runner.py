import math

import numpy as np
import pytest

from ngn import runner
from ngn.objectives import FiniteSumObjective, make_quadratic1d, make_two_quadratics
from ngn.runner import (
    Aggregate,
    RunError,
    TRACE_COLUMNS,
    _draw_indices,
    aggregate_metric,
    averaged_iterate_uniform,
    averaged_iterate_weighted,
    check_run,
    run_seeds,
    run_sgd,
    trace_to_csv,
)
from ngn.specs import POLICIES, PROBLEMS, build_spec
from ngn.stepsizes import APS, NGN, Constant, NGNAnnealed, StepsizePolicy


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
    trace = run_sgd(make_two_quadratics(), NGN(0.5), 5, sampler="full_batch")
    assert np.array_equal(trace.batch_ids, [[0, 1]])
    trace_to_csv(trace, tmp_path / "trace.csv")
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["0;1"] * 5


def test_check_run_sampler_validation():
    obj = make_two_quadratics()
    with pytest.raises(ValueError, match="unknown sampler 'bogus'"):
        check_run(obj, NGN(0.5), 5, sampler="bogus")
    with pytest.raises(ValueError, match="batch_size must be between 1"):
        check_run(obj, NGN(0.5), 5, batch_size=0)


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


@pytest.mark.parametrize("policy", [
    NGN(0.5), NGNAnnealed(1.0, "inv_sqrt"), NGNAnnealed(1.0, "inv_linear"),
])
def test_averaged_iterates_match_online_recurrences(policy):
    # the recurrences the runner used to update at every step
    obj = build_spec(PROBLEMS, "linear_regression(d=3, n=10, seed=1, noise_std=0.5)")
    traces = run_seeds(obj, policy, 400, seeds=range(4), x0=np.full(3, 4.0),
                       store_iterates=True)
    for trace in traces:
        mean = np.zeros(3)
        weighted = np.zeros(3)
        weight_total = 0.0
        for k in range(trace.steps):
            x = trace.iterates[k]
            mean += (x - mean) / (k + 1)
            weight_total += trace.sigma[k]
            weighted += (trace.sigma[k] / weight_total) * (x - weighted)
        np.testing.assert_allclose(averaged_iterate_uniform(trace), mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(averaged_iterate_weighted(trace), weighted,
                                   rtol=1e-12, atol=0)


def test_averaged_iterates_undefined():
    obj = make_quadratic1d(1.2, 0.0, 0.1)
    diverged = run_sgd(obj, Constant(2.0), 100, x0=np.array([3.0]), store_iterates=True)
    no_iterates = run_sgd(obj, NGN(0.5), 20)
    for average in (averaged_iterate_uniform, averaged_iterate_weighted):
        with pytest.raises(ValueError, match="diverged"):
            average(diverged)
        with pytest.raises(ValueError, match="store_iterates"):
            average(no_iterates)
    # APS has no sigma_k (NaN), so only the uniform average is defined
    aps = run_sgd(obj, APS(), 20, x0=np.array([3.0]), store_iterates=True)
    assert np.isnan(aps.sigma).all()
    assert np.isfinite(averaged_iterate_uniform(aps)).all()
    with pytest.raises(ValueError, match="non-finite sigma_k"):
        averaged_iterate_weighted(aps)


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
                    sampler="full_batch"),
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
            return np.full(np.shape(obs.loss), 0.1)

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
        kwargs = dict(sampler="full_batch")
    else:
        kwargs = dict(sampler="epoch_shuffle", batch_size=min(2, obj.n))
    kwargs.update(cadence=7, store_iterates=True)
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


class ScheduledStep(StepsizePolicy):
    """Stub: sigma_k = 1/(k+1) and a stepsize that `gamma_at(k, obs)` picks."""

    def __init__(self, gamma_at):
        self.gamma_at = gamma_at

    def sigma_schedule(self, steps):
        return 1.0 / np.arange(1.0, steps + 1.0)

    def stepsize(self, obs):
        return np.full(np.shape(obs.loss), 1.0) * self.gamma_at(obs.k, obs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["loss_test", "iterate_test"])
def test_sigma_cells_of_diverged_rows(case):
    # the loss test stops a row before its step: sigma_k reads NaN from k on;
    # the iterate test stops it after the step: sigma_k stays, NaN after k
    obj = make_quadratic1d(1.2, 0.0, 0.1)
    if case == "loss_test":  # the loss passes 1e30 at step 99
        policy = ScheduledStep(lambda k, obs: 2.0)
    else:  # a step of 1e308 * grad overflows x at step 5
        policy = ScheduledStep(lambda k, obs: 1e308 if k == 5 else 0.1)
    kwargs = dict(x0=np.array([3.0]), cadence=3, store_iterates=True)
    together = run_seeds(obj, policy, 150, seeds=range(3), **kwargs)
    schedule = 1.0 / np.arange(1.0, 151.0)
    for seed, trace in zip(range(3), together):
        k = trace.diverged_step
        assert k == (99 if case == "loss_test" else 5)
        kept = k if case == "loss_test" else k + 1
        assert np.array_equal(trace.sigma[:kept], schedule[:kept])
        assert np.isnan(trace.sigma[kept:]).all()
        assert not np.shares_memory(trace.sigma, together[seed - 1].sigma)  # its own copy
        assert_same_trace(trace, run_sgd(obj, policy, 150, seed=seed, **kwargs))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stationary_and_diverging_rows_in_one_step():
    # at step 3 the rows with a small loss go stationary (NaN gamma) and those
    # with a large loss take a step that overflows; the rest step on
    def gamma_at(k, obs):
        if k != 3:
            return 0.01
        return np.where(obs.loss < 0.05, np.nan, np.where(obs.loss > 2.0, 1e308, 0.01))

    obj = make_quadratic1d(10.0, 0.0, 0.0)
    policy = ScheduledStep(gamma_at)
    kwargs = dict(cadence=2, store_iterates=True)
    together = run_seeds(obj, policy, 10, seeds=range(8), **kwargs)
    still = [bool(t.stationary[3]) for t in together]
    assert [i for i, s in enumerate(still) if s] == [0, 7]
    assert [t.diverged_step for t in together] == [None, None, None, 3, None, None, 3, None]
    for seed, trace in zip(range(8), together):
        if still[seed]:
            assert trace.gamma[3] == 0.0 and np.array_equal(trace.iterates[4], trace.iterates[3])
        assert_same_trace(trace, run_sgd(obj, policy, 10, seed=seed, **kwargs))


def test_sigma_row_shared_by_running_traces():
    traces = run_seeds(make_two_quadratics(), NGN(0.5), 120, seeds=range(3))
    assert all(t.sigma is traces[0].sigma for t in traces)
    assert not traces[0].sigma.flags.writeable
    assert np.array_equal(traces[0].sigma, np.full(120, 0.5))


def test_observed_loss_clamped_to_positive_zero():
    # components 0 and 1 report a loss of -0.0 and -1.0; policies see +0.0
    losses = np.array([-0.0, -1.0, 2.0])
    obj = FiniteSumObjective(3, 1, lambda idx, X: (losses[idx], np.ones(idx.shape + (1,))))
    seen = []

    def gamma_at(k, obs):
        seen.append(obs.loss.copy())
        return 0.1

    policy = ScheduledStep(gamma_at)
    traces = run_seeds(obj, policy, 30, seeds=range(3))
    observed = np.array(seen)
    assert np.array_equal(observed, np.maximum(np.array([t.loss_batch for t in traces]).T, 0.0))
    assert not np.signbit(observed).any()
    assert np.signbit([t.loss_batch for t in traces]).any()  # recorded as reported
