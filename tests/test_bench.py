"""The bench script, run at tiny sizes: a guard against its rotting."""

import importlib.util
import json
from pathlib import Path

import pytest

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


def test_bench_fails_when_a_case_runs_no_steps(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "write_traces", lambda run, paths: None)
    with pytest.raises(RuntimeError, match="case sweep ran no steps"):
        bench.main(["--out", str(tmp_path / "bench.json"), "--steps", "3", "--sweep-steps", "4",
                    "--reps", "1"])
    assert not (tmp_path / "bench.json").exists()
