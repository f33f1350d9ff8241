import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest

import ngn
from ngn import objectives, runner, verify
from ngn.cli import main
from ngn.objectives import (
    FiniteSumObjective,
    make_nonconvex_sum,
    make_quadratic1d,
    make_two_quadratics,
)
from ngn.runner import (
    Aggregate,
    Run,
    RunError,
    TRACE_COLUMNS,
    _Sampler,
    aggregate_metric,
    check_run,
    metric_points,
    metrics,
    write_traces,
)
from ngn.specs import POLICIES, PROBLEMS, build_spec
from ngn.stepsizes import APS, NGN, AdaGradNorm, Armijo, Constant, StepsizePolicy
from traces import whole_traces


def one_trace(obj, policy, steps, *, seed=0, **kwargs):
    """The trace of a one-row run of `seed`."""
    return whole_traces(Run(obj, policy, steps, seeds=(seed,), **kwargs))[0]


def test_determinism_same_seed_identical_traces():
    obj = make_two_quadratics()
    a = one_trace(obj, NGN(0.5), 500, seed=11)
    b = one_trace(obj, NGN(0.5), 500, seed=11)
    assert np.array_equal(a.x_final, b.x_final)
    assert np.array_equal(a.loss_batch, b.loss_batch)
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.batch_ids, b.batch_ids)


def test_different_seeds_differ():
    obj = make_two_quadratics()
    a = one_trace(obj, NGN(0.5), 200, seed=1)
    b = one_trace(obj, NGN(0.5), 200, seed=2)
    assert not np.array_equal(a.loss_batch, b.loss_batch)


def test_update_correctness_recheckable_from_trace():
    obj = make_two_quadratics()
    trace = one_trace(obj, NGN(0.7), 50, seed=3, cadence=1)
    # every step's batch gradient, one row per step
    _, grads = obj.eval_many(trace.batch_ids, trace.iterates[:-1])
    steps = np.diff(trace.iterates, axis=0)
    assert np.allclose(steps, -trace.gamma[:, None] * grads, rtol=0, atol=1e-15)


def test_divergence_flag_on_unstable_gd():
    obj = make_quadratic1d(1.2, 0.0, 0.1)
    trace = one_trace(obj, Constant(2.0), 100, seed=0, x0=np.array([3.0]))
    assert trace.diverged
    assert trace.diverged_step is not None and trace.diverged_step < 100


def test_stable_gd_does_not_diverge():
    obj = make_quadratic1d(1.2, 0.0, 0.1)
    trace = one_trace(obj, Constant(1.0), 500, seed=0, x0=np.array([3.0]), cadence=500)
    assert not trace.diverged
    assert trace.loss_full[-1] == pytest.approx(0.1, abs=1e-9)


def test_with_replacement_sampling_frequencies():
    n = 10
    rng = np.random.default_rng(0)
    draws = _Sampler("with_replacement_uniform", n, 1, rng).draw(10**6)
    freqs = np.bincount(draws.ravel(), minlength=n) / draws.size
    assert np.all(np.abs(freqs - 1.0 / n) <= 5.0 * math.sqrt(n) / 1e3)


def test_epoch_shuffle_covers_every_index():
    n = 7
    rng = np.random.default_rng(1)
    draws = _Sampler("epoch_shuffle", n, 1, rng).draw(3 * n).ravel()
    for e in range(3):
        assert sorted(draws[e * n:(e + 1) * n]) == list(range(n))


def test_full_batch_rows(tmp_path):
    # one row that every step uses, not a table of `steps` identical rows
    rng = np.random.default_rng(0)
    draws = _Sampler("full_batch", 4, 4, rng).draw(5)
    assert np.array_equal(draws, [np.arange(4)])
    trace = one_trace(make_two_quadratics(), NGN(0.5), 5, sampler="full_batch")
    assert np.array_equal(trace.batch_ids, [[0, 1]])
    write_traces(Run(make_two_quadratics(), NGN(0.5), 5, sampler="full_batch"),
                 [tmp_path / "trace.csv"])
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
    trace = one_trace(obj, NGN(0.5), 100, seed=0, cadence=25)
    assert list(trace.metric_steps) == [0, 25, 50, 75, 100]
    no_metrics = one_trace(obj, NGN(0.5), 100, seed=0)
    assert len(no_metrics.metric_steps) == 0


def test_trace_csv_schema(tmp_path):
    path = tmp_path / "trace.csv"
    write_traces(Run(make_two_quadratics(), NGN(0.5), 10, cadence=5), [path])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 11  # header + 10 steps
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[6] != ""  # on-cadence metrics present
    row1 = lines[2].split(",")
    assert row1[6] == "" and row1[7] == "" and row1[8] == ""  # off-cadence empty


def test_trace_csv_cells_parse_as_floats(tmp_path):
    path = tmp_path / "trace.csv"
    write_traces(Run(make_two_quadratics(), NGN(0.5), 20, cadence=3), [path])
    rows = path.read_text().splitlines()[1:]
    numeric = [c for c, name in enumerate(TRACE_COLUMNS) if name != "batch_ids"]
    cells = [row.split(",")[c] for row in rows for c in numeric]
    assert all(float(cell) == float(cell) for cell in cells if cell)


@pytest.mark.parametrize("make_run", [
    lambda: Run(make_two_quadratics(), NGN(0.5), 25, seeds=(3,), cadence=4),
    lambda: Run(make_two_quadratics(), NGN(0.5), 25, seeds=(3,), cadence=4,
                sampler="full_batch"),
    lambda: Run(make_quadratic1d(1.2, 0.0, 0.1), Constant(2.0), 150, x0=np.array([3.0]),
                cadence=7),  # diverges at step 99
    lambda: Run(make_two_quadratics(), NGN(0.5), 25, seeds=(3,), cadence=1),
    lambda: Run(make_two_quadratics(), NGN(0.5), 25, seeds=(3,), cadence=5),
], ids=["uniform", "full_batch", "diverged", "cadence1", "cadence5"])
def test_trace_csv_row_blocks_keep_bytes(tmp_path, monkeypatch, make_run):
    # at least three blocks of 7 rows write the bytes of one block; the metric
    # cadences 4 and 5 divide neither the block nor the 25 steps, so a block's
    # first metric row moves from block to block (0, 3, 1 at cadence 5)
    write_traces(make_run(), [tmp_path / "whole.csv"])
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", 7)
    write_traces(make_run(), [tmp_path / "blocked.csv"])
    whole = (tmp_path / "whole.csv").read_bytes()
    assert whole == (tmp_path / "blocked.csv").read_bytes()
    assert whole.count(b"\n") - 1 >= 3 * 7


@pytest.mark.parametrize("values, cells", [
    ([0.0, -0.0, 0.0], ["0.0", "-0.0", "0.0"]),
    ([-0.0, -0.0], ["-0.0", "-0.0"]),
    ([math.inf] * 3, [""] * 3),
    ([math.nan] * 3, [""] * 3),
    ([2.5] * 3, ["2.5"] * 3),
])
def test_cells_of_one_value_blocks(values, cells):
    # a block formatted once must be one value bit for bit: 0.0 == -0.0
    assert runner._cells(np.array(values)) == cells


def test_metric_columns_share_cells_only_when_bit_equal():
    # dist_sq takes loss_full's cells; grad_full_sq equals them as values but
    # not as bits (-0.0), so it is formatted on its own
    out = io.StringIO()
    metrics = [np.array([1.5, 0.0]), np.array([1.5, 0.0]), np.array([1.5, -0.0])]
    runner._write_rows(out, ["0", "1"], np.array([[0], [1]]), [np.ones(2)] * 4, 0, 1,
                       np.arange(2), metrics)
    assert out.getvalue() == "0,0,1.0,1.0,1.0,1.0,1.5,1.5,1.5\n1,1,1.0,1.0,1.0,1.0,0.0,0.0,-0.0\n"


def test_policy_error_annotated_with_step():
    obj = make_two_quadratics()

    class Broken(StepsizePolicy):
        def stepsize(self, obs):
            if obs.k == 3:
                raise RuntimeError("boom")
            return np.full(np.shape(obs.loss), 0.1)

    with pytest.raises(RunError) as exc:
        one_trace(obj, Broken(), 10, seed=0)
    assert exc.value.step == 3


def test_x0_pinning_and_default_draw():
    obj = make_two_quadratics()
    pinned = one_trace(obj, NGN(0.5), 5, seed=0, x0=np.array([2.0]))
    assert pinned.x0[0] == 2.0
    drawn_a = one_trace(obj, NGN(0.5), 5, seed=9)
    drawn_b = one_trace(obj, NGN(0.5), 5, seed=9)
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


@pytest.mark.parametrize("policy", LOCKSTEP_POLICIES)
@pytest.mark.parametrize("problem", LOCKSTEP_PROBLEMS)
def test_lockstep_matches_solo_runs(problem, policy):
    obj = build_spec(PROBLEMS, problem)
    if policy.startswith("armijo"):
        kwargs = dict(sampler="full_batch")
    else:
        kwargs = dict(sampler="epoch_shuffle", batch_size=min(2, obj.n))
    kwargs.update(cadence=1)  # every iterate and its metrics
    together = whole_traces(Run(obj, build_spec(POLICIES, policy), 40, seeds=range(4), **kwargs))
    for seed, trace in zip(range(4), together):
        assert_same_trace(trace, one_trace(obj, build_spec(POLICIES, policy), 40, seed=seed,
                                           **kwargs))
    # rows that retire at steps 23 and 9 while the others run on
    ends = [40, 23, 40, 9]
    retired = whole_traces(Run(obj, build_spec(POLICIES, policy), ends, seeds=range(4), **kwargs))
    for seed, (end, trace) in enumerate(zip(ends, retired)):
        assert not trace.diverged
        assert_same_trace(trace, one_trace(obj, build_spec(POLICIES, policy), end, seed=seed,
                                           **kwargs))


def test_sps_max_rows_read_their_own_component_min(monkeypatch):
    # f_i* that differ by component, so each row's component_min is its own
    # batch's: rows 1 and 3 retire at steps 23 and 9, mid-chunk and before
    # later chunks, and every row matches its solo run
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 7)
    obj = build_spec(PROBLEMS, "linear_regression(d=4, n=12, seed=1, noise_std=0.1)")
    obj.f_i_star = np.linspace(0.0, 1e-3, obj.n)
    kwargs = dict(sampler="epoch_shuffle", batch_size=2, cadence=7)
    ends = [40, 23, 40, 9]
    policy = "sps_max(c=0.5, gamma_b=2.0)"
    together = whole_traces(Run(obj, build_spec(POLICIES, policy), ends, seeds=range(4), **kwargs))
    for seed, (end, trace) in enumerate(zip(ends, together)):
        assert_same_trace(trace, one_trace(obj, build_spec(POLICIES, policy), end, seed=seed,
                                           **kwargs))


class BatchArmijo(Armijo):
    """Armijo on each row's own batch: its probe evaluates that batch at the trial point."""

    requires_full_batch = False


def test_probe_evaluates_each_running_rows_batch(monkeypatch):
    # rows 1 and 3 retire at steps 23 and 9, mid-chunk: the probe evaluates
    # each running row's own batch, so every row matches its solo run
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 7)
    obj = build_spec(PROBLEMS, "linear_regression(d=4, n=12, seed=1, noise_std=0.1)")
    kwargs = dict(sampler="epoch_shuffle", batch_size=2, cadence=7)
    ends = [40, 23, 40, 9]
    together = whole_traces(Run(obj, BatchArmijo(0.1, 0.7, 2.0), ends, seeds=range(4), **kwargs))
    for seed, (end, trace) in enumerate(zip(ends, together)):
        assert_same_trace(trace, one_trace(obj, BatchArmijo(0.1, 0.7, 2.0), end, seed=seed,
                                           **kwargs))


def test_lockstep_stationary_rows_match_solo_runs():
    # APS halves x on this quadratic. For seed 1 the gradient underflows to
    # exactly 0 (a stationary row from step 536 on); for the other seeds the
    # loss underflows first, so their steps shrink to 0 instead
    obj = make_quadratic1d(1.0, 0.0, 0.0)
    together = whole_traces(Run(obj, APS(), 600, seeds=range(4), cadence=100))
    assert [int(t.stationary.sum()) for t in together] == [0, 64, 0, 0]
    for seed, trace in zip(range(4), together):
        assert_same_trace(trace, one_trace(obj, APS(), 600, seed=seed, cadence=100))


def test_lockstep_diverged_rows_match_solo_runs():
    # constant steps that overshoot on some components: seeds 2, 3 and 4
    # diverge, each at its own step, while 0, 1 and 5 converge
    obj = build_spec(PROBLEMS, "linear_regression(d=1, n=6, seed=3)")
    together = whole_traces(Run(obj, Constant(5.0), 300, seeds=range(6), cadence=1))
    steps = [t.diverged_step for t in together]
    assert steps[:2] == [None, None] and steps[5] is None
    assert len({steps[2], steps[3], steps[4]} - {None}) == 3
    for trace in together[2:5]:  # x_final is the iterate that tripped the test
        k = trace.diverged_step
        assert obj.eval_many(trace.batch_ids[k][None], trace.x_final[None])[0][0] == \
            trace.loss_batch[k]
        assert max(trace.loss_batch[k], trace.grad_sq[k]) > 1e30
    for seed, trace in zip(range(6), together):
        solo = one_trace(obj, Constant(5.0), 300, seed=seed, cadence=1)
        assert (trace.diverged_step, trace.x_final.tolist()) == (solo.diverged_step,
                                                                 solo.x_final.tolist())
        assert_same_trace(trace, solo)


METRIC_BLOCK_CASES = {
    # ROW_BLOCK_ENTRIES = 7 makes a chunk of each step and splits its S rows
    # in full_many into blocks of one or a few; at the default, one chunk
    # whose points full_many takes in blocks of 65536 // n rows, logistic's
    # 804 in blocks of 65536 // (30 * 3)
    "lockstep": [
        ("two_quadratics()", "ngn(sigma=1.0)", 3000, range(4), dict(cadence=7)),
        ("linear_regression(d=4, n=12, seed=1, noise_std=0.1)", "sps_max(c=0.5, gamma_b=2.0)",
         200, range(3), dict(cadence=1, sampler="epoch_shuffle", batch_size=2)),
        ("logistic_blobs(n=30, d=3, classes=3, seed=2)", "ngn(sigma=1.0)", 200, range(4),
         dict(cadence=1)),
    ],
    "diverged": [("linear_regression(d=1, n=6, seed=3)", "constant(gamma=5.0)", 300, range(6),
                  dict(cadence=50))],
    # three rows, and seed 1 goes stationary
    "stationary": [("quadratic1d(lam=1.0, xstar=0.0, fstar=0.0)", "aps()", 600, range(3),
                    dict(cadence=100))],
    # every row diverges at step 99, at cadence 1 the 100th metric point, its
    # last; from x0 = 1e160 every row stops at step 0, and f(x0) overflows
    # where the chunk evaluates its metric points
    "all_diverged": [
        ("quadratic1d(lam=1.2, xstar=0.0, fstar=0.1)", "constant(gamma=2.0)", 150, range(2),
         dict(cadence=1, x0=np.array([3.0]))),
        ("quadratic1d(lam=1.2, xstar=0.0, fstar=0.1)", "constant(gamma=0.1)", 10, range(2),
         dict(cadence=1, x0=np.array([1e160]))),
    ],
}


@pytest.mark.parametrize("case", METRIC_BLOCK_CASES)
def test_metric_blocks_keep_traces(monkeypatch, case):
    # ROW_BLOCK_ENTRIES = 1 evaluates each metric point as it is reached
    for problem, policy, steps, seeds, kwargs in METRIC_BLOCK_CASES[case]:
        obj = build_spec(PROBLEMS, problem)
        runs = []
        for block_entries in (1, 7, objectives.ROW_BLOCK_ENTRIES):
            monkeypatch.setattr(objectives, "ROW_BLOCK_ENTRIES", block_entries)
            run = Run(obj, build_spec(POLICIES, policy), steps, seeds=seeds, **kwargs)
            runs.append(whole_traces(run))
            monkeypatch.undo()
        diverged = [t.diverged_step is not None for t in runs[0]]
        assert any(diverged) == case.endswith("diverged")
        assert all(diverged) == (case == "all_diverged")
        assert any(t.stationary.any() for t in runs[0]) == (case == "stationary")
        for traces in runs[1:]:
            for trace, reference in zip(traces, runs[0]):
                assert_same_trace(trace, reference)


def full_many_calls(obj):
    """The row count of each `obj.full_many` call from now on."""
    calls, full_many = [], obj.full_many
    obj.full_many = lambda X: calls.append(len(X)) or full_many(X)
    return calls


def test_full_many_called_once_per_metric_block():
    # a call per chunk: 1365 cadence points, then 635 and the final point
    obj = make_two_quadratics()
    calls = full_many_calls(obj)
    whole_traces(Run(obj, NGN(0.5), 2000, seeds=range(8), cadence=1))
    assert calls == [8 * 1365, 8 * 636]
    # however large a point's full objective: 3 cadence points and the final one
    obj = build_spec(PROBLEMS, "logistic_blobs(n=2000, d=20, classes=5, seed=0)")
    calls = full_many_calls(obj)
    whole_traces(Run(obj, NGN(1.0), 30, seeds=range(3), sampler="epoch_shuffle", batch_size=16,
                     cadence=10))
    assert calls == [12]


def test_logistic_full_takes_blocks_of_six_rows():
    # the benchmark's logistic_run config: chunks of 182 and 118 steps hold
    # 19 and 11 cadence points plus the final one, each over 3 rows, and
    # full_many gives `full` at most ROW_BLOCK_ENTRIES // (2000 * 5) = 6 rows
    obj = build_spec(PROBLEMS, "logistic_blobs(n=2000, d=20, classes=5, seed=0)")
    calls, full = [], obj._full
    obj._full = lambda X: calls.append(len(X)) or full(X)
    run = Run(obj, NGN(1.0), 300, seeds=range(3), sampler="epoch_shuffle", batch_size=16,
              cadence=10)
    write_traces(run, [])
    assert calls == [6] * 9 + [3] + [6] * 6


def test_no_metric_points_after_every_row_stopped(monkeypatch):
    # both rows diverge at step 99: their iterates read NaN from step 100 on,
    # so the chunks after it evaluate no point, nor the last one a final point
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 10)
    obj = make_quadratic1d(1.2, 0.0, 0.1)
    calls = full_many_calls(obj)
    run = Run(obj, Constant(2.0), 150, seeds=range(2), x0=np.array([3.0]), cadence=1)
    chunks = list(run)
    assert run.diverged_step.tolist() == [99, 99]
    assert calls == []  # the run evaluates no metric
    assert [c.metric_steps.tolist() for c in chunks] == [list(range(k, k + 10))
                                                         for k in range(0, 150, 10)]
    iterates = np.concatenate([c.iterates for c in chunks], axis=1)
    assert np.isfinite(iterates[:, :100]).all() and np.isnan(iterates[:, 100:]).all()
    assert np.isnan(metric_points(run, chunks[-1])[:, -1]).all()
    finals = write_traces(Run(obj, Constant(2.0), 150, seeds=range(2), x0=np.array([3.0]),
                              cadence=1), [])
    assert calls == [2 * 10] * 10
    assert np.isnan(finals).all()


def test_stopped_rows_add_no_metric_points(monkeypatch):
    # row 0 runs 2000 steps and rows 1-19 retire at step 100, in chunks of
    # 500: write_traces evaluates 2000 + 19 * 100 cadence points and the 20
    # final points, none at the iterates of a row that has stopped
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 500)
    obj = make_two_quadratics()
    calls = full_many_calls(obj)
    finals = write_traces(Run(obj, NGN(0.5), [2000] + [100] * 19, seeds=range(20), cadence=1), [])
    assert calls == [500 + 19 * 100, 500, 500, 500 + 20]
    assert sum(calls) == 3920
    assert np.isfinite(finals).all()


@pytest.mark.parametrize("sampler", ["with_replacement_uniform", "epoch_shuffle"])
def test_chunks_evaluate_no_full_objective(monkeypatch, sampler):
    # the runner steps and keeps iterates: read by its chunks, a run that
    # does not step on the full objective makes no full_many call
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 7)
    obj = make_two_quadratics()
    calls = full_many_calls(obj)
    chunks = list(Run(obj, NGN(0.5), 30, seeds=range(3), sampler=sampler, cadence=5))
    assert calls == []
    assert np.concatenate([c.metric_steps for c in chunks]).tolist() == list(range(0, 30, 5))
    assert all(c.iterates.shape == (3, len(c.metric_steps), 1) for c in chunks)


class ScheduledStep(StepsizePolicy):
    """Stub: sigma_k = 1/(k+1) and a stepsize that `gamma_at(k, obs)` picks."""

    def __init__(self, gamma_at):
        self.gamma_at = gamma_at

    def sigma_schedule(self, steps, start=0):
        return 1.0 / np.arange(start + 1.0, steps + 1.0)

    def stepsize(self, obs):
        return np.full(np.shape(obs.loss), 1.0) * self.gamma_at(obs.k, obs)


@pytest.mark.parametrize("case", ["loss_test", "iterate_test"])
def test_sigma_cells_of_diverged_rows(case):
    # the loss test stops a row before its step: sigma_k reads NaN from k on;
    # the iterate test stops it after the step: sigma_k stays, NaN after k
    obj = make_quadratic1d(1.2, 0.0, 0.1)
    if case == "loss_test":  # the loss passes 1e30 at step 99
        policy = ScheduledStep(lambda k, obs: 2.0)
    else:  # a step of 1e308 * grad overflows x at step 5
        policy = ScheduledStep(lambda k, obs: 1e308 if k == 5 else 0.1)
    kwargs = dict(x0=np.array([3.0]), cadence=1)
    together = whole_traces(Run(obj, policy, 150, seeds=range(3), **kwargs))
    schedule = 1.0 / np.arange(1.0, 151.0)
    for seed, trace in zip(range(3), together):
        k = trace.diverged_step
        assert k == (99 if case == "loss_test" else 5)
        kept = k if case == "loss_test" else k + 1
        assert np.array_equal(trace.sigma[:kept], schedule[:kept])
        assert np.isnan(trace.sigma[kept:]).all()
        assert not np.shares_memory(trace.sigma, together[seed - 1].sigma)  # its own copy
        assert_same_trace(trace, one_trace(obj, policy, 150, seed=seed, **kwargs))


def test_stationary_and_diverging_rows_in_one_step():
    # at step 3 the rows with a small loss go stationary (NaN gamma) and those
    # with a large loss take a step that overflows; the rest step on
    def gamma_at(k, obs):
        if k != 3:
            return 0.01
        return np.where(obs.loss < 0.05, np.nan, np.where(obs.loss > 2.0, 1e308, 0.01))

    obj = make_quadratic1d(10.0, 0.0, 0.0)
    policy = ScheduledStep(gamma_at)
    kwargs = dict(cadence=1)
    together = whole_traces(Run(obj, policy, 10, seeds=range(8), **kwargs))
    still = [bool(t.stationary[3]) for t in together]
    assert [i for i, s in enumerate(still) if s] == [0, 7]
    assert [t.diverged_step for t in together] == [None, None, None, 3, None, None, 3, None]
    for seed, trace in zip(range(8), together):
        if still[seed]:
            assert trace.gamma[3] == 0.0 and np.array_equal(trace.iterates[4], trace.iterates[3])
        assert_same_trace(trace, one_trace(obj, policy, 10, seed=seed, **kwargs))


def test_sigma_row_shared_by_running_traces():
    traces = whole_traces(Run(make_two_quadratics(), NGN(0.5), 120, seeds=range(3)))
    assert all(t.sigma is traces[0].sigma for t in traces)
    assert not traces[0].sigma.flags.writeable
    assert np.array_equal(traces[0].sigma, np.full(120, 0.5))


class RowIds:
    """Stub mixin for a run of `n_rows` rows: `ids` numbers the rows the policy observes.

    It holds every row after reset and follows the runner's keep_rows calls,
    so that a stub picks a row by its number in the run.
    """

    n_rows = 0

    def reset(self):
        super().reset()
        self.ids = np.arange(self.n_rows)

    def keep_rows(self, keep):
        super().keep_rows(keep)
        self.ids = self.ids[keep]


class RecordsSigma(RowIds, NGN):
    """NGN that records each step's sigma_k and rows; row 2's step 30 overflows its iterate."""

    n_rows = 3

    def __init__(self, sigma, schedule=None):
        super().__init__(sigma, schedule)
        self.seen = {}

    def stepsize(self, obs):
        self.seen[obs.k] = (np.ndim(obs.sigma), float(obs.sigma), self.ids.tolist())
        gamma = super().stepsize(obs)
        if obs.k == 30:
            gamma[self.ids == 2] = np.inf  # IndexError unless gamma has a value per observed row
        return gamma


@pytest.mark.parametrize("schedule", [None, "inv_sqrt"])
def test_policy_observes_the_chunk_sigma(monkeypatch, schedule):
    # row 0 retires at step 25 and row 2 diverges at step 30, both mid-chunk;
    # at every step the policy sees sigma_k as a 0-d value, the chunk's own,
    # and exactly the rows still running: row 0 through step 24, row 2
    # through step 30, whose iterate overflows after the policy's call
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 7)
    policy = RecordsSigma(0.5, schedule)
    run = Run(make_two_quadratics(), policy, [25, 100, 100], seeds=range(3))
    for chunk in run:
        for k in range(chunk.k0, chunk.k1):
            running = [r for r, end in enumerate((25, 100, 31)) if k < end]
            assert policy.seen.pop(k) == (0, chunk.sigma[k - chunk.k0], running), k
    assert policy.seen == {}
    assert run.diverged_step.tolist() == [-1, -1, 30]
    assert run.lengths().tolist() == [25, 100, 31]


class AdaGradBlowsUp(RowIds, AdaGradNorm):
    """AdaGradNorm whose row `row` takes the step `gamma` at step `at`."""

    def __init__(self, n_rows, row, at, gamma):
        self.n_rows, self.row, self.at, self.gamma = n_rows, row, at, gamma
        super().__init__(1.0, 0.1)

    def stepsize(self, obs):
        gamma = super().stepsize(obs)
        if obs.k == self.at:
            gamma[self.ids == self.row] = self.gamma
        return gamma


@pytest.mark.parametrize("case", ["loss_test", "iterate_test"])
def test_adagrad_rows_keep_their_state_when_a_row_diverges(monkeypatch, case):
    # row 1 of 4 stops at step 11, mid-chunk: its step of 1e20 at step 10
    # puts its batch loss above 1e30 at step 11, before the policy's call,
    # or its step of inf at step 11 overflows its iterate, after the call.
    # AdaGrad's accumulators of rows 0, 2 and 3 follow them, so each row's
    # trace is its solo run's, bit for bit
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 7)
    obj = make_two_quadratics()
    at, gamma = (10, 1e20) if case == "loss_test" else (11, np.inf)
    kwargs = dict(cadence=1)
    run = Run(obj, AdaGradBlowsUp(4, 1, at, gamma), 30, seeds=range(4), **kwargs)
    together = whole_traces(run)
    assert run.diverged_step.tolist() == [-1, 11, -1, -1]
    # the loss test stops row 1 before its policy call at step 11, which
    # leaves gamma NaN there; the iterate test stops it after its step of inf
    assert np.array_equal(together[1].gamma[11], np.nan if case == "loss_test" else np.inf,
                          equal_nan=True)
    assert np.isnan(together[1].gamma[12:]).all() and np.isfinite(together[1].gamma[:11]).all()
    for seed, trace in zip(range(4), together):
        policy = AdaGradBlowsUp(1, 0, at, gamma) if seed == 1 else AdaGradNorm(1.0, 0.1)
        assert_same_trace(trace, one_trace(obj, policy, 30, seed=seed, **kwargs))


def test_observed_loss_clamped_to_positive_zero():
    # components 0 and 1 report a loss of -0.0 and -1.0; policies see +0.0
    losses = np.array([-0.0, -1.0, 2.0])
    obj = FiniteSumObjective(3, 1, lambda idx, X: (losses[idx], np.ones(idx.shape + (1,))))
    seen = []

    def gamma_at(k, obs):
        seen.append(obs.loss.copy())
        return 0.1

    policy = ScheduledStep(gamma_at)
    traces = whole_traces(Run(obj, policy, 30, seeds=range(3)))
    observed = np.array(seen)
    assert np.array_equal(observed, np.maximum(np.array([t.loss_batch for t in traces]).T, 0.0))
    assert not np.signbit(observed).any()
    assert np.signbit([t.loss_batch for t in traces]).any()  # recorded as reported


def fixed_rows_run(rows, steps=3):
    """A 2-d run whose row r reports the batch loss and gradient rows[r] at every step.

    The rows take steps of gamma 0, so each stays at its own start point,
    which the stub objective looks its values up by.
    """
    table = {}

    def evaluator(idx, X):
        loss, grad = zip(*(table[tuple(x)] for x in X.tolist()))
        return np.array(loss)[:, None], np.array(grad, dtype=float)[:, None, :]

    run = Run(FiniteSumObjective(1, 2, evaluator), ScheduledStep(lambda k, obs: 0.0), steps,
              seeds=range(len(rows)))
    table.update(zip(map(tuple, run.X.tolist()), rows))  # the start points, before a chunk
    return run


THRESHOLD = runner.DIVERGENCE_THRESHOLD
ABOVE = np.nextafter(THRESHOLD, np.inf)
THRESHOLD_CASES = {  # (loss, gradient, recorded grad_sq, diverges)
    "loss_at": (THRESHOLD, [1.0, 0.0], 1.0, False),
    "grad_sq_at": (1.0, [1e15, 0.0], THRESHOLD, False),
    "loss_above": (ABOVE, [1.0, 0.0], 1.0, True),
    "loss_below_minus": (-2e30, [1.0, 0.0], 1.0, True),  # |loss| is tested
    "grad_sq_above": (1.0, [1e15, 2 ** 23.5], ABOVE, True),  # 1e30 + 2^47, one ulp up
    "loss_nan": (np.nan, [1.0, 0.0], 1.0, True),
}


@pytest.mark.parametrize("case", THRESHOLD_CASES)
def test_divergence_threshold_is_inclusive(case):
    # a batch loss or squared gradient norm of exactly 1e30 runs on; one ulp
    # above it, |loss| above it or NaN stops the row at that step
    loss, grad, grad_sq, diverges = THRESHOLD_CASES[case]
    run = fixed_rows_run([(0.5, [1.0, 1.0]), (loss, grad)])
    chunk = next(iter(run))
    assert np.array_equal(chunk.loss_batch[:, 0], [0.5, loss], equal_nan=True)
    assert chunk.grad_sq[:, 0].tolist() == [2.0, grad_sq]
    assert run.diverged_step.tolist() == [-1, 0 if diverges else -1]
    assert run.lengths().tolist() == [3, 1 if diverges else 3]


def test_rows_below_the_threshold_run_on_whatever_their_sum():
    # twenty losses of 9e29: their sum of squares, 1.6e61, is above 1e30
    # squared, yet no row is above the threshold, so every row runs on
    values = np.array([9e29] * 20 + [1.0] * 20)  # the losses, then the squared norms
    assert np.vecdot(values, values) > THRESHOLD ** 2
    run = fixed_rows_run([(9e29, [1.0, 0.0])] * 20)
    chunk = next(iter(run))
    assert (chunk.loss_batch == 9e29).all() and (chunk.grad_sq == 1.0).all()
    assert (run.diverged_step == -1).all()


class TrackedStep(RowIds, ScheduledStep):
    """ScheduledStep that knows the run's numbers of the rows it observes."""

    n_rows = 3


def test_kept_observations_and_chunks_keep_their_values(monkeypatch):
    # a policy may keep each step's obs.loss and obs.grad_sq_norm; they keep
    # the values the chunks hand out, and a chunk's arrays are not written
    # once the next chunk runs. Chunks of 5 steps: row 1 retires at step 7
    # and row 2's steps of 1e10 from step 6 on make it diverge at step 8,
    # both inside the second chunk, where stopped rows are indexed by `sel`
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 5)
    kept = []

    def gamma_at(k, obs):
        kept.append((obs.k, policy.ids.copy(), obs.loss, obs.grad_sq_norm))
        return np.where((policy.ids == 2) & (k >= 6), 1e10, 0.5)

    policy = TrackedStep(gamma_at)
    run = Run(make_two_quadratics(), policy, [13, 7, 13], seeds=range(3), cadence=1)
    fields = ("loss_batch", "grad_sq", "gamma", "stationary", "iterates")
    chunks, copies = [], []
    for chunk in run:
        chunks.append(chunk)
        copies.append([getattr(chunk, f).copy() for f in fields])
    assert [(c.k0, c.k1) for c in chunks] == [(0, 5), (5, 10), (10, 13)]
    assert run.diverged_step.tolist() == [-1, -1, 8]
    assert run.lengths().tolist() == [13, 7, 9]
    for chunk, copy in zip(chunks, copies):
        for name, before in zip(fields, copy):
            assert getattr(chunk, name).tobytes() == before.tobytes(), (chunk.k0, name)
    loss = np.concatenate([c.loss_batch for c in chunks], axis=1)
    grad_sq = np.concatenate([c.grad_sq for c in chunks], axis=1)
    assert [k for k, _, _, _ in kept] == list(range(13))
    for k, ids, obs_loss, obs_grad_sq in kept:
        # exactly the rows that reach the policy at step k, in row order:
        # row 1 through step 6, row 2 through step 7 (its loss stops it at 8)
        running = np.flatnonzero((k < run.ends) & ((run.diverged_step < 0)
                                                   | (k < run.diverged_step)))
        assert ids.tolist() == running.tolist(), k
        assert np.array_equal(obs_loss, np.maximum(loss[running, k], 0.0)), k
        assert np.array_equal(obs_grad_sq, grad_sq[running, k]), k


@pytest.mark.parametrize("n", [2, 3, 8, 2000])
@pytest.mark.parametrize("mode", ["with_replacement_uniform", "epoch_shuffle"])
def test_split_draws_match_one_draw(mode, n):
    # a chunk at a time, the indices of one draw of all steps; epoch_shuffle
    # carries the rest of a permutation over to the next draw
    whole = _Sampler(mode, n, 3, np.random.default_rng([4, 1])).draw(9000)
    for split in (5, 7, 500, 4096):
        sampler = _Sampler(mode, n, 3, np.random.default_rng([4, 1]))
        parts = [sampler.draw(min(split, 9000 - k)) for k in range(0, 9000, split)]
        assert np.array_equal(np.concatenate(parts), whole)


CHUNK_CASES = {
    # every sampler; at batch 5 of 12 components, epochs split across chunks
    "uniform": ("linear_regression(d=4, n=12, seed=1, noise_std=0.1)", "ngn(sigma=1.0)", 60,
                range(3), dict(cadence=1)),
    "epoch_shuffle": ("linear_regression(d=4, n=12, seed=1, noise_std=0.1)",
                      "sps_max(c=0.5, gamma_b=2.0)", 60, range(3),
                      dict(sampler="epoch_shuffle", batch_size=5, cadence=3)),
    "full_batch": ("logistic_blobs(n=30, d=3, classes=3, seed=2)", "polyak(fstar=0.0)", 30,
                   range(2), dict(sampler="full_batch", cadence=1)),
    # Armijo's probe evaluates every row's trial point
    "armijo": ("logistic_blobs(n=30, d=3, classes=3, seed=2)",
               "armijo(c1=0.1, backtrack=0.7, gamma_init=2.0)", 30, range(3),
               dict(sampler="full_batch", cadence=1)),
    # seeds 2, 3 and 4 diverge mid-chunk, each at its own step
    "diverged": ("linear_regression(d=1, n=6, seed=3)", "constant(gamma=5.0)", 300, range(6),
                 dict(cadence=1)),
    "stationary": ("quadratic1d(lam=1.0, xstar=0.0, fstar=0.0)", "aps()", 600, range(4),
                   dict(cadence=100)),
    "adagrad": ("nonconvex_sum(n=6, seed=1, eps=0.4)", "adagrad_norm(eta=1.0, delta0=0.1)", 50,
                range(3), dict(sampler="epoch_shuffle", batch_size=2, cadence=1)),
    # each chunk's sigma_k comes from a schedule that starts at its k0
    "annealed": ("two_quadratics()", "ngn_annealed(sigma0=2.0)", 100, range(2),
                 dict(cadence=1)),
}


@pytest.mark.parametrize("case", CHUNK_CASES)
def test_chunked_runs_keep_traces(monkeypatch, case):
    problem, policy, steps, seeds, kwargs = CHUNK_CASES[case]
    obj = build_spec(PROBLEMS, problem)
    reference = whole_traces(Run(obj, build_spec(POLICIES, policy), steps, seeds=seeds, **kwargs))
    default = Run(obj, build_spec(POLICIES, policy), steps, seeds=seeds, **kwargs)
    assert default.chunk_steps >= steps  # one chunk
    if case == "diverged":
        assert [t.diverged for t in reference] == [False, False, True, True, True, False]
    if case == "stationary":
        assert any(t.stationary.any() for t in reference)
    for chunk in (1, 7):
        monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: chunk)
        chunked = whole_traces(Run(obj, build_spec(POLICIES, policy), steps, seeds=seeds, **kwargs))
        for trace, expected in zip(chunked, reference):
            assert_same_trace(trace, expected)


@pytest.mark.parametrize("chunk", [1, 7, 11])
def test_retired_rows_across_chunks_and_flushes(monkeypatch, chunk):
    # full_many blocks of 32 rows, 8 points of the 4: rows retire at steps 9
    # and 23, off the cadence 7, and the row ending at 33 runs past the longest
    # end of 40's last metric step; the chunks carry each row's values and finals
    monkeypatch.setattr(objectives, "ROW_BLOCK_ENTRIES", 2 * 4 * 12 * 4)
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: chunk)
    obj = build_spec(PROBLEMS, "linear_regression(d=4, n=12, seed=1, noise_std=0.1)")
    ends = [40, 23, 33, 9]
    kwargs = dict(seeds=range(4), sampler="epoch_shuffle", batch_size=2, cadence=7)
    traces = whole_traces(Run(obj, NGN(1.0), ends, **kwargs))
    for seed, (end, trace) in enumerate(zip(ends, traces)):
        assert_same_trace(trace, one_trace(obj, NGN(1.0), end, seed=seed,
                                           sampler="epoch_shuffle", batch_size=2, cadence=7))
    run = Run(obj, NGN(1.0), ends, **kwargs)
    chunks = list(run)
    with pytest.raises(RuntimeError, match="ended at step 40"):
        run.advance()
    points = [metric_points(run, c) for c in chunks]  # the last chunk's add the finals
    assert ([len(p[0]) - len(c.metric_steps) for p, c in zip(points, chunks)]
            == [0] * (len(chunks) - 1) + [1])
    steps = np.concatenate([c.metric_steps for c in chunks])
    assert steps.tolist() == list(range(0, 40, 7))
    values = np.concatenate([metrics(obj, p) for p in points], axis=2)
    for r, (end, trace) in enumerate(zip(ends, traces)):
        assert trace.metric_steps.tolist() == [k for k in steps if k < end] + [end]
        cadence = len(trace.metric_steps) - 1
        assert np.isnan(values[:, r, cadence:-1]).all()  # none after it retired
        assert np.array_equal(values[:, r, :cadence], [trace.loss_full[:-1], trace.dist_sq[:-1],
                                                       trace.grad_full_sq[:-1]])
        assert np.array_equal(values[:, r, -1], [trace.loss_full[-1], trace.dist_sq[-1],
                                                 trace.grad_full_sq[-1]])


STREAM_CASES = {
    "uniform": ("two_quadratics()", lambda: NGN(0.5), 40, dict(seeds=range(3), cadence=3)),
    "epoch_shuffle": ("linear_regression(d=4, n=12, seed=1, noise_std=0.1)",
                      lambda: build_spec(POLICIES, "sps_max(c=0.5, gamma_b=2.0)"), 40,
                      dict(seeds=[5, 2, 9], sampler="epoch_shuffle", batch_size=5, cadence=4)),
    "full_batch": ("two_quadratics()", lambda: build_spec(POLICIES, "armijo()"), 40,
                   dict(seeds=range(2), sampler="full_batch", cadence=7)),
    # the loss test stops every row at step 99 and sigma reads NaN from there;
    # the iterate test stops them at step 5, after the step, and NaN follows
    "loss_test": ("quadratic1d(lam=1.2, xstar=0.0, fstar=0.1)",
                  lambda: ScheduledStep(lambda k, obs: 2.0), 150,
                  dict(seeds=range(2), x0=np.array([3.0]), cadence=3)),
    "iterate_test": ("quadratic1d(lam=1.2, xstar=0.0, fstar=0.1)",
                     lambda: ScheduledStep(lambda k, obs: 1e308 if k == 5 else 0.1), 150,
                     dict(seeds=range(2), x0=np.array([3.0]), cadence=3)),
    "some_diverged": ("linear_regression(d=1, n=6, seed=3)", lambda: Constant(5.0), 300,
                      dict(seeds=range(6), cadence=50)),
    # row 1 retires at step 9, off the cadence: its finals are its own
    "retired": ("linear_regression(d=4, n=12, seed=1, noise_std=0.1)", lambda: NGN(1.0), [40, 9],
                dict(seeds=[0, 1], sampler="epoch_shuffle", batch_size=2, cadence=7)),
}


def assert_csv_holds_trace(path, trace):
    """The CSV's cells are the trace's values: off-cadence and non-finite cells are empty."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0] == list(TRACE_COLUMNS)
    length = trace.diverged_step + 1 if trace.diverged else trace.steps
    assert len(rows) == 1 + length
    columns = list(zip(*rows[1:]))
    assert columns[0] == tuple(map(str, range(length)))
    ids = np.broadcast_to(trace.batch_ids[:length], (length, trace.batch_ids.shape[1]))
    assert columns[1] == tuple(";".join(map(str, row)) for row in ids.tolist())
    on = trace.metric_steps < length
    expected = [values[:length] for values in (trace.loss_batch, trace.gamma, trace.sigma,
                                               trace.grad_sq)]
    for values in (trace.loss_full, trace.dist_sq, trace.grad_full_sq):
        spread = np.full(length, np.nan)
        spread[trace.metric_steps[on]] = values[on]
        expected.append(spread)
    for cells, values in zip(columns[2:], expected):
        parsed = np.array([float(cell) if cell else np.nan for cell in cells])
        assert np.array_equal(parsed, np.where(np.isfinite(values), values, np.nan),
                              equal_nan=True)


@pytest.mark.parametrize("chunk", [1, 7, 11, None])
@pytest.mark.parametrize("case", STREAM_CASES)
def test_streamed_csv_matches_whole_traces(tmp_path, monkeypatch, case, chunk):
    # chunks of 1, 7 and 11 steps write the bytes of the default chunk length,
    # cell for cell the values of the whole traces
    problem, make_policy, steps, kwargs = STREAM_CASES[case]
    obj = build_spec(PROBLEMS, problem)
    traces = whole_traces(Run(obj, make_policy(), steps, **kwargs))
    default = [tmp_path / f"default{r}.csv" for r in range(len(traces))]
    write_traces(Run(obj, make_policy(), steps, **kwargs), default)
    if chunk is not None:
        monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: chunk)
    paths = [tmp_path / f"streamed{r}.csv" for r in range(len(traces))]
    last = write_traces(Run(obj, make_policy(), steps, **kwargs), paths)
    assert any(t.diverged for t in traces) == case.endswith(("test", "diverged"))
    for trace, path, default_path, final in zip(traces, paths, default, last):
        assert path.read_bytes() == default_path.read_bytes()
        assert_csv_holds_trace(path, trace)
        if not trace.diverged:
            assert np.array_equal(final, [trace.loss_full[-1], trace.dist_sq[-1],
                                          trace.grad_full_sq[-1], trace.gamma[-1]],
                                  equal_nan=True)


@pytest.mark.parametrize("chunks", [1, 3])
def test_consumers_need_a_run_at_step_zero(tmp_path, monkeypatch, chunks):
    # after one of its three chunks, or after the last, a run has no step 0
    # left to give: neither consumer starts from where it stands
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 10)
    run = Run(make_two_quadratics(), NGN(0.5), 30, seeds=range(2), cadence=5)
    for _ in range(chunks):
        run.advance()
    paths = [tmp_path / "trace0.csv", tmp_path / "trace1.csv"]
    for consume in (whole_traces, lambda run: write_traces(run, paths)):
        with pytest.raises(ValueError, match=f"advanced to step {10 * chunks}"):
            consume(run)
    assert list(tmp_path.iterdir()) == []
    assert run.k == 10 * chunks


@pytest.mark.parametrize("seeds, count", [((0, 1, 2), 1), ((0, 1), 3)])
def test_write_traces_needs_a_path_per_row(tmp_path, seeds, count):
    run = Run(make_two_quadratics(), NGN(0.5), 20, seeds=seeds)
    paths = [tmp_path / f"trace{r}.csv" for r in range(count)]
    with pytest.raises(ValueError, match=f"{count} trace paths for {len(seeds)} rows"):
        write_traces(run, paths)
    assert list(tmp_path.iterdir()) == []
    assert run.k == 0


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_runs_keep_bounded_memory(tmp_path, monkeypatch):
    # runs of 10x the steps peak within 10% of the shorter ones, plus 32 kB:
    # criterion 07's check reduces each chunk, and `ngn run` writes each
    # chunk's trace rows; short chunks make both runs many chunks long
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 50, raising=False)
    obj = make_nonconvex_sum(8, 3)
    monkeypatch.setattr(verify, "make_nonconvex_sum", lambda n, seed: obj)
    verify.check_nonconvex_rate(steps=10, n_seeds=2)
    short, long = (traced_peak(lambda: verify.check_nonconvex_rate(steps=steps, n_seeds=2))
                   for steps in (300, 3000))
    assert long <= 1.1 * short + 32_000, (short, long)

    def cli_run(steps):
        cfg = tmp_path / f"run{steps}.cfg"
        cfg.write_text(f"problem = two_quadratics()\npolicy = ngn(sigma=0.5)\n"
                       f"steps = {steps}\ncadence = 1000\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / str(steps))]) == 0

    cli_run(10)
    short, long = (traced_peak(lambda: cli_run(steps)) for steps in (400, 4000))
    assert long <= 1.1 * short + 32_000, (short, long)


def test_long_sweeps_keep_bounded_memory(tmp_path, monkeypatch):
    # a sweep keeps each point's final values, not its traces: 10x the steps
    # peak within 10% of the shorter sweep, plus 32 kB
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 50)

    def sweep(steps):
        cfg = tmp_path / f"sweep{steps}.cfg"
        cfg.write_text(f"problem = two_quadratics()\npolicy = ngn(sigma=0.5)\nsteps = {steps}\n"
                       f"seeds = 0,1,2\naxis = sigma\nvalues = 0.1,0.5,2\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / str(steps))]) == 0

    sweep(10)
    short, long = (traced_peak(lambda: sweep(steps)) for steps in (400, 4000))
    assert long <= 1.1 * short + 32_000, (short, long)


@pytest.mark.parametrize("check", [
    verify.check_lemma_bounds,
    lambda steps: verify.check_never_diverge(sigma_grid=(1.0,), steps=steps),
], ids=["lemma_bounds", "never_diverge"])
def test_chunked_checks_keep_bounded_memory(monkeypatch, check):
    # verify's checks reduce each chunk: 10x the steps peak within 10% of the
    # shorter call, plus 32 kB. The stability check's NGN(100) run has a fixed
    # length whatever `steps` is, so the comparison does not measure it; 500
    # steps, 10 chunks and more than its 100-step tail, keep it short
    monkeypatch.setattr(runner, "_chunk_steps", lambda rows, width: 50)
    monkeypatch.setattr(verify, "SETTLE_STEPS", 500)
    check(steps=10)
    short, long = (traced_peak(lambda: check(steps=steps)) for steps in (300, 3000))
    assert long <= 1.1 * short + 32_000, (short, long)


def test_package_reads_a_run_by_chunks_or_write_traces():
    assert not {"whole_traces", "RunTrace"} & set(ngn.__all__)
