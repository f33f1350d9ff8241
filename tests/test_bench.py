"""The bench script, run at tiny sizes: a guard against its rotting."""

import importlib.util
import json
from pathlib import Path

import pytest

from ngn import runner
from ngn.objectives import FiniteSumObjective

BENCH = Path(__file__).resolve().parent.parent / "bench" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_times_every_case(bench, tmp_path):
    out = tmp_path / "bench.json"
    assert bench.main(["--out", str(out), "--steps", "3", "--sweep-steps", "4", "--reps", "1"]) == 0
    record = json.loads(out.read_text())
    assert len(record["cases"]) == 17
    assert record["cases"]["sweep"]["row_steps"] == 1000 * 4
    for name, case in record["cases"].items():
        assert case["row_steps"] > 0 and case["us_per_row_step"]["median"] > 0, name
    assert set(record["ngn_over_sgd"]) == {name.removesuffix("/ngn") for name in record["cases"]
                                           if name.endswith("/ngn")}
    assert record["python"] and record["numpy"]
    # a traced pass of each case: a step is an eval_many and a stepsize call, and the
    # sweep's final values, at its cadence, are one metrics call of one full_many call
    for name, case in record["cases"].items():
        layers = case["layers"]
        steps = 4 if name == "sweep" else 3
        assert [layers[layer]["calls"] for layer in ("objectives", "stepsizes", "runner")] == [
            steps + (name == "sweep"), steps, 1], name
        assert layers["metrics"]["calls"] == (name == "sweep"), name
        assert all(layers[layer]["share"] > 0 for layer in ("objectives", "stepsizes",
                                                            "runner")), name


@pytest.mark.parametrize("owner, name", [(FiniteSumObjective, "eval_many"),
                                         (FiniteSumObjective, "full_many"),
                                         (runner, "metrics"), (runner, "write_traces")])
def test_bench_fails_when_a_wrapped_name_is_missing(bench, tmp_path, monkeypatch, owner, name):
    monkeypatch.delattr(owner, name)
    with pytest.raises(AttributeError, match=name):
        bench.main(["--out", str(tmp_path / "bench.json"), "--steps", "3", "--sweep-steps", "4",
                    "--reps", "1"])
    assert not (tmp_path / "bench.json").exists()


def test_bench_fails_when_a_layer_reads_no_call(bench, tmp_path, monkeypatch):
    # a write_traces that steps the run but evaluates no final value through metrics
    eval_many = FiniteSumObjective.eval_many
    monkeypatch.setattr(runner, "write_traces", lambda run, paths: list(run))
    with pytest.raises(RuntimeError, match="case sweep: layer metrics made no call"):
        bench.main(["--out", str(tmp_path / "bench.json"), "--steps", "3", "--sweep-steps", "4",
                    "--reps", "1"])
    assert not (tmp_path / "bench.json").exists()
    assert FiniteSumObjective.eval_many is eval_many  # the wraps are off


def test_bench_fails_when_a_case_runs_no_steps(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "write_traces", lambda run, paths: None)
    with pytest.raises(RuntimeError, match="case sweep ran no steps"):
        bench.main(["--out", str(tmp_path / "bench.json"), "--steps", "3", "--sweep-steps", "4",
                    "--reps", "1"])
    assert not (tmp_path / "bench.json").exists()
