import argparse
import collections
import contextlib
import hashlib
import io
import multiprocessing
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from ngn import cli, objectives, specs, verify
from ngn.cli import ConfigError, ExperimentConfig, main
from ngn.objectives import ParseError, load_libsvm, make_blobs_dataset, write_libsvm
from ngn.runner import SAMPLERS, Run, RunError, write_traces


def write_config(path, **overrides):
    base = {
        "problem": "quadratic1d(lam=1.2, xstar=0.0, fstar=0.1)",
        "policy": "ngn(sigma=1.0)",
        "steps": "100",
        "seeds": "0",
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_minimal_config(tmp_path):
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    trace = out / "trace_seed0.csv"
    assert trace.exists()
    assert len(trace.read_text().splitlines()) == 101  # header + 100 steps
    assert (out / "aggregate.csv").exists()
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "metric,mean,std,ci_half"


def test_run_rejects_zero_sigma(tmp_path):
    cfg = write_config(tmp_path / "bad.cfg", policy="ngn(sigma=0)")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_run_rejects_unknown_problem(tmp_path):
    cfg = write_config(tmp_path / "bad.cfg", problem="rosenbrock(n=2)")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_run_rejects_missing_keys(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("steps = 10\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key,spec", [
    ("problem", "two_quadratics(nn=5)"),
    ("policy", "ngn(sigma=1.0, sigmaa=7)"),
    ("policy", "ngn(sigma=1.0, sigma=5.0)"),
    ("policy", "ngn(sigma=abc)"),
    ("problem", "logistic_file(path=no_such_file.svm)"),
    ("problem", "linear_regression(d=2.7)"),
    ("policy", "ngn(sigma=nan)"),
    ("policy", "ngn(sigma=inf)"),
    ("policy", "constant(gamma=nan)"),
    ("policy", "adagrad_norm(eta=nan, delta0=1)"),
    ("problem", "logistic_blobs(l2=nan)"),
    ("problem", "quadratic1d(lam=inf)"),
    # sizes and a noise level the builders cannot use: no classes, no
    # features, a negative noise standard deviation
    ("problem", "logistic_blobs(classes=0)"),
    ("problem", "logistic_blobs(classes=-0.0)"),
    ("problem", "logistic_blobs(d=0)"),
    ("problem", "linear_regression(noise_std=-1)"),
    # a noise level and a curvature whose values overflow while the problem is built
    ("problem", "linear_regression(d=10, n=2, noise_std=1e308)"),
    ("problem", "nonconvex_sum(eps=1e308)"),
])
def test_run_rejects_bad_spec_parameters(tmp_path, capsys, key, spec):
    cfg = write_config(tmp_path / "bad.cfg", **{key: spec})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: " in capsys.readouterr().err


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "typo.cfg", stpes="5000")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown key 'stpes'" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "syntax.cfg"
    cfg.write_text("problem quadratic1d(lam=1)\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_run_rejects_repeated_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "repeat.cfg", steps="10")
    cfg.write_text(cfg.read_text() + "steps = 20\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:5: key 'steps' repeats line 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,lineno,cause", [
    ("steps", "2.5", 3, "invalid literal for int() with base 10: '2.5'"),
    ("seeds", "0,x", 4, "invalid literal for int() with base 10: 'x'"),
    ("x0", "1,,2", 5, "could not convert string to float: ''"),
    ("values", "0.1,abc", 5, "could not convert string to float: 'abc'"),
    ("cadence", "0", 5, "must be >= 1, got 0"),
    # values that only runner.check_run rejects
    ("steps", "0", 3, "must be >= 1"),
    ("steps", "9223372036854775808", 3,
     "must be <= 9223372036854775807, got 9223372036854775808"),
    ("seeds", "", 4, "at least one seed is required"),
    ("batch_size", "5", 5, "must be between 1 and the component count 1, got 5"),
])
def test_bad_value_names_its_line_and_key(tmp_path, capsys, key, value, lineno, cause):
    cfg = write_config(tmp_path / "bad.cfg", **{key: value})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:{lineno}: {key}: {cause}\n"
    assert not out.exists()


@pytest.mark.parametrize("overrides,cause", [
    ({"policy": "polyak()"}, "PolyakKnownFStar requires sampler = full_batch"),
    ({"seeds": "1,1"}, "each row needs its own seed or parameter values; seed 1 repeats"),
], ids=["polyak_sampler", "repeated_rows"])
def test_a_rule_over_several_keys_names_the_file(tmp_path, capsys, overrides, cause):
    cfg = write_config(tmp_path / "bad.cfg", **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: {cause}\n"


def test_run_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", seeds="0,1")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    for name in ("trace_seed0.csv", "trace_seed1.csv", "aggregate.csv"):
        assert file_hash(out_a / name) == file_hash(out_b / name)


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "run.cfg")
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("NGN_OUT_DIR", str(env_dir))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (env_dir / "trace_seed0.csv").exists()


def test_seed_offset(tmp_path):
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--seed-offset", "5"]) == 0
    assert (out / "trace_seed5.csv").exists()


def test_jobs_flag_matches_sequential(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", seeds="0,1,2")
    out_seq, out_par = tmp_path / "seq", tmp_path / "par"
    assert main(["run", "--config", str(cfg), "--out", str(out_seq)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_par),
                 "--jobs", "2"]) == 0
    for i in range(3):
        name = f"trace_seed{i}.csv"
        assert file_hash(out_seq / name) == file_hash(out_par / name)


def test_huge_jobs_starts_no_process(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "run.cfg", seeds="0,1,2")
    out_seq, out_huge = tmp_path / "seq", tmp_path / "huge"
    assert main(["run", "--config", str(cfg), "--out", str(out_seq)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("ngn run started a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.Process, "start", refuse)
    assert main(["run", "--config", str(cfg), "--out", str(out_huge),
                 "--jobs", "1000000"]) == 0
    for name in ("trace_seed0.csv", "trace_seed1.csv", "trace_seed2.csv", "aggregate.csv"):
        assert (out_seq / name).read_bytes() == (out_huge / name).read_bytes()


def test_run_and_sweep_build_the_problem_once(tmp_path, monkeypatch):
    data = tmp_path / "blobs.svm"
    assert main(["datagen", "blobs", "n=20", "d=3", "classes=2", "--out", str(data)]) == 0
    loads = []

    def counted(path):
        loads.append(path)
        return load_libsvm(path)

    monkeypatch.setattr(specs, "load_libsvm", counted)
    problem = f"logistic_file(path={data})"
    cfg = write_config(tmp_path / "run.cfg", problem=problem, steps="20", seeds="0,1")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert len(loads) == 1

    loads.clear()
    cfg = write_config(tmp_path / "sweep.cfg", problem=problem, steps="20", seeds="0,1",
                       axis="sigma", values="0.5,2")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    assert len(loads) == 1


def test_diverged_seed_left_out_of_aggregate_and_exit_status(tmp_path, capsys):
    # constant(gamma=2.0) on lam=1.2 multiplies x - x* by -1.4 each step;
    # from x0 = 3 the squared gradient norm passes 1e30 at step 99
    cfg = write_config(tmp_path / "div.cfg", policy="constant(gamma=2.0)",
                       steps="150", seeds="0,1", x0="3.0", cadence="7")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "seed 0: diverged at step 99" in capsys.readouterr().out
    assert (out / "aggregate.csv").read_text() == "metric,mean,std,ci_half\n"
    assert len((out / "trace_seed0.csv").read_text().splitlines()) == 101  # cut after 99


@pytest.mark.parametrize("command,overrides", [
    ("run", {"policy": "polyak()"}),
    ("run", {"policy": "armijo()"}),
    ("run", {"batch_size": "2"}),
    ("sweep", {"policy": "armijo()", "axis": "c1", "values": "0.1,0.2"}),
    *((command, bad) for command in ("run", "sweep") for bad in (
        {"x0": "1.0,2.0"}, {"x0": "nan"}, {"seeds": "-1"}, {"seeds": "2,2"})),
])
def test_sampler_the_run_cannot_use_is_config_error(tmp_path, capsys, command, overrides):
    # polyak/armijo need sampler = full_batch; quadratic1d has one component,
    # one coordinate, and each seed names one trace file
    if command == "sweep":
        overrides = {"axis": "sigma", "values": "0.5,1.0", **overrides}
    cfg = write_config(tmp_path / "bad.cfg", **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_policy_failure_is_exit_status_3(tmp_path, capsys, command):
    # from gamma_init = 1e308 every Armijo trial step overflows: the run fails
    # at step 0 with a one-line message and its own status, not a traceback
    overrides = {"axis": "c1", "values": "0.1,0.2"} if command == "sweep" else {}
    cfg = write_config(tmp_path / "fail.cfg",
                       problem="linear_regression(seed=-0.0, noise_std=1e-320)",
                       policy="armijo(gamma_init=1e308)", sampler="full_batch", steps="5",
                       **overrides)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run error: step 0: no acceptable Armijo step")
    assert err.count("\n") == 1


def test_negative_seed_offset_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed-offset", "-3"]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:4: seeds: must be >= 0, got -3\n"
    assert not out.exists()


def test_sweep_marks_best_and_neighbors(tmp_path):
    cfg = write_config(
        tmp_path / "sweep.cfg",
        problem="two_quadratics()",
        steps="300",
        seeds="0,1",
        axis="sigma",
        values="0.3,1,3,10,30",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,mean,std,ci_half,mark"
    marks = {row.split(",")[0]: row.split(",")[-1] for row in lines[1:]}
    best = [v for v, m in marks.items() if m == "best"]
    assert len(best) == 1
    value = float(best[0])
    for v, m in marks.items():
        fv = float(v)
        if abs(fv - value / 3.0) < 1e-9 * value:
            assert m == "neighbor_lower"
        elif abs(fv - value * 3.0) < 1e-9 * value:
            assert m == "neighbor_upper"


def test_sweep_best_invariant_under_grid_permutation(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out, values in ((out_a, "0.3,1,3,10,30"), (out_b, "30,3,0.3,10,1")):
        cfg = write_config(
            tmp_path / f"sweep_{out.name}.cfg",
            problem="two_quadratics()",
            steps="300",
            seeds="0",
            axis="sigma",
            values=values,
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0

    def best_of(path):
        for row in (path / "sweep.csv").read_text().splitlines()[1:]:
            cells = row.split(",")
            if cells[-1] == "best":
                return float(cells[0])

    assert best_of(out_a) == best_of(out_b)


def test_sweep_single_value(tmp_path):
    cfg = write_config(
        tmp_path / "sweep.cfg",
        problem="two_quadratics()",
        steps="50",
        axis="sigma",
        values="2.0",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",best")


def test_sweep_marks_diverged_points(tmp_path, capsys):
    # constant(gamma=2.0) diverges on lam=1.2 from x0 = 3; gamma=0.1 does not
    cfg = write_config(tmp_path / "sweep.cfg", policy="constant(gamma=0.1)", seeds="0,1",
                       x0="3.0", axis="gamma", values="0.1,2.0")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[0] == "0.1" and rows[0].endswith(",best")
    assert all(float(cell) >= 0.0 for cell in rows[0].split(",")[1:4])
    assert rows[1] == "2.0,,,,diverged"
    assert "gamma = 2.0: 2 of 2 seed(s) diverged" in capsys.readouterr().out


def test_sweep_with_every_point_diverged_fails(tmp_path, capsys):
    cfg = write_config(tmp_path / "sweep.cfg", policy="constant(gamma=2.0)", seeds="0,1",
                       x0="3.0", axis="gamma", values="2.0,3.0")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1:] == ["2.0,,,,diverged", "3.0,,,,diverged"]
    printed = capsys.readouterr().out
    assert "gamma = 3.0: 2 of 2 seed(s) diverged" in printed
    assert "no best value" in printed


def test_sweep_is_one_run_whose_points_are_their_own_runs(tmp_path, monkeypatch):
    # one Run of (value, seed) rows; each value's row of sweep.csv holds the
    # final-loss statistics that `ngn run` of that value writes
    runs = []

    def counted(*args, **kwargs):
        runs.append(cli_run := Run(*args, **kwargs))
        return cli_run

    monkeypatch.setattr(cli, "Run", counted)
    common = dict(problem="two_quadratics()", steps="300", seeds="2,0,1")
    cfg = write_config(tmp_path / "sweep.cfg", axis="sigma", values="0.3,1,3", **common)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    assert len(runs) == 1 and runs[0].seeds == [0, 1, 2] * 3
    assert runs[0].policy.params["sigma"].tolist() == [0.3] * 3 + [1.0] * 3 + [3.0] * 3
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    for row, value in zip(rows, ("0.3", "1", "3")):
        cfg = write_config(tmp_path / f"run{value}.cfg", policy=f"ngn(sigma={value})", **common)
        out = tmp_path / f"run{value}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        loss = (out / "aggregate.csv").read_text().splitlines()[1].split(",")
        assert loss[0] == "loss_full_final" and row.split(",")[1:4] == loss[1:4]
    assert len(runs) == 4


def test_sweep_rows_repeat_seeds_under_distinct_values_only(tmp_path, capsys):
    # a seed given twice repeats a (value, seed) row: a config error
    cfg = write_config(tmp_path / "sweep.cfg", seeds="1,1", axis="sigma", values="0.5,2")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "seed 1 repeats with parameter values (0.5,)" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_axis(tmp_path):
    cfg = write_config(tmp_path / "sweep.cfg")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_sweep_rejects_repeated_value(tmp_path, capsys):
    cfg = write_config(tmp_path / "sweep.cfg", axis="sigma", values="1,1,3")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: sweep values must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_unknown_axis(tmp_path):
    cfg = write_config(tmp_path / "sweep.cfg", axis="sigmaa", values="0.3,1,3")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_verify_gradients_suite(tmp_path, capsys):
    assert main(["verify", "gradients", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "verify_report.csv").read_text().splitlines()
    assert report[0].startswith("check,")
    assert len(report) == 2


def test_verify_unknown_suite(tmp_path):
    assert main(["verify", "bogus", "--out", str(tmp_path)]) == 2


def test_verify_rejects_an_unknown_suite_before_running_any(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(verify.SUITES, "lemmas", lambda: ran.append("lemmas") or [])
    assert main(["verify", "lemmas", "bogus", "--out", str(tmp_path)]) == 2
    assert ran == []
    assert "unknown suite 'bogus'" in capsys.readouterr().err


def test_verify_makes_its_output_directory_before_running_a_suite(tmp_path, monkeypatch, capsys):
    def fail():
        raise AssertionError("a suite ran")

    monkeypatch.setitem(verify.SUITES, "rates", fail)
    file = tmp_path / "file"
    file.write_text("")
    assert main(["verify", "rates", "--out", str(file / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot create output directory")
    # an unknown suite name is rejected before the directory is made
    assert main(["verify", "rates", "bogus", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{cfg}", "--out", "{file}"],
    ["verify", "gradients", "--out", "{file}/x"],
    ["datagen", "blobs", "n=30", "--out", "{file}/x.svm"],
], ids=["run", "verify", "datagen"])
def test_output_path_at_a_file_is_config_error(tmp_path, capsys, argv):
    # the output directory is an existing file, or lies under one
    cfg, file = write_config(tmp_path / "run.cfg", steps="5"), tmp_path / "file"
    file.write_text("")
    assert main([arg.format(cfg=cfg, file=file) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory") and err.count("\n") == 1


def test_datagen_into_a_directory_is_config_error(tmp_path, capsys):
    # the output file is an existing directory: open() fails after the
    # directory check, and that failure too is a config error naming the path
    assert main(["datagen", "blobs", "n=10", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write dataset {tmp_path}: ")
    assert err.count("\n") == 1


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg")
    cfg.write_bytes(cfg.read_bytes() + b"# caf\xc3\xa9\n# \xff\xfe\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: line 6: byte 0xff is not UTF-8 text\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_config_lines_may_end_in_cr(tmp_path, end):
    # a config is read with universal newlines, where LIBSVM text ends a line at \n only
    cfg = write_config(tmp_path / "run.cfg")
    cfg.write_bytes(cfg.read_bytes().replace(b"\n", end))
    assert cli.parse_config(cfg) == cli.parse_config(write_config(tmp_path / "lf.cfg"))


def test_verify_empty_selection(tmp_path):
    assert main(["verify", "--out", str(tmp_path)]) == 2


def test_python_dash_m_passes_the_exit_status(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "ngn", "verify", "bogus"], cwd=tmp_path,
                         env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("config error: unknown suite 'bogus'")


def test_datagen_blobs_round_trip(tmp_path):
    out = tmp_path / "blobs.svm"
    assert main(["datagen", "blobs", "n=200", "d=5", "classes=3", "seed=7",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 200
    data = load_libsvm(out)
    assert data.num_classes == 3
    assert set(data.labels) == {0, 1, 2}


def test_datagen_deterministic(tmp_path):
    a, b = tmp_path / "a.svm", tmp_path / "b.svm"
    for out in (a, b):
        assert main(["datagen", "blobs", "n=30", "d=3", "classes=2", "seed=1",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("params, error", [
    (["foo=1", "n=10", "n=20"], "parameter 'n' repeats in 'blobs(foo=1, n=10, n=20)'"),
    (["foo=1", "n=10"], "blobs() has no parameter 'foo'; it takes n, d, classes, seed"),
    (["n=2.5"], "blobs() parameter 'n' must be int, got 2.5"),
    (["seed=x"], "blobs() parameter 'seed' must be int, got 'x'"),
], ids=["repeated", "unknown", "fraction", "text"])
def test_datagen_reads_its_pairs_through_the_table(tmp_path, capsys, params, error):
    # the key=value pairs are a spec of the DATASETS table: an unknown or
    # repeated key is a config error, as in a problem or policy spec
    out = tmp_path / "x.svm"
    assert main(["datagen", "blobs", *params, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not out.exists()


def test_datagen_takes_the_table_defaults_and_integral_floats(tmp_path):
    # n=1e2 is the integer 100, as in logistic_blobs(n=1e2); d and classes default
    out = tmp_path / "x.svm"
    assert main(["datagen", "blobs", "n=1e2", "seed=3", "--out", str(out)]) == 0
    data, expected = load_libsvm(out), make_blobs_dataset(100, 5, 3, 3)
    assert np.array_equal(data.features, expected.features)
    assert np.array_equal(data.labels, expected.labels) and data.num_classes == 3


def test_datagen_bad_params(tmp_path):
    assert main(["datagen", "blobs", "n", "--out", str(tmp_path / "x.svm")]) == 2


@pytest.mark.parametrize("problem", ["linear_regression(d=20, n=40)",
                                     "logistic_blobs(n=40, d=5, classes=3)",
                                     "nonconvex_sum(n=20)"])
def test_run_rejects_oversized_problem(tmp_path, monkeypatch, problem):
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 100)
    monkeypatch.setattr(objectives, "MAX_NONCONVEX_COMPONENTS", 10)
    cfg = write_config(tmp_path / "big.cfg", problem=problem)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


# values that the spec fuzz draws for a parameter a quarter of the time,
# and the choices of its string parameters (a bad one among them)
EDGES = (0.0, -1.0, -0.0, 1e-320, 1e308)
STRING_CHOICES = {"schedule": ("constant", "inv_sqrt", "inv_linear", "bogus"),
                  "h": ("quadratic", "monomial", "neg_log", "bogus")}


def fuzz_spec(rng, table, path):
    """A random spec of `table`: each parameter its default (a typical value
    if it is required) three times in four, else an edge value or left out."""
    name = rng.choice(sorted(table))
    parts = []
    for key, declared in table[name].params.items():
        default = specs.declaration(declared)[0]
        if default is str or isinstance(default, str):
            choices = STRING_CHOICES.get(key, (path, f"{path}.missing"))
            parts.append(f"{key}={rng.choice(choices)}")
        elif rng.random() < 0.75:
            value = default if not isinstance(default, type) else rng.choice((0.1, 0.5, 2.0))
            parts.append(f"{key}={value!r}")
        elif rng.random() < 0.9:
            parts.append(f"{key}={rng.choice(EDGES)!r}")
    return f"{name}({', '.join(parts)})"


def fuzz_datagen(rng):
    """Random `ngn datagen blobs` arguments: known, unknown and repeated keys,
    odd values, and one pair in ten malformed."""
    pairs = []
    for _ in range(rng.randrange(4)):
        key = rng.choice(("n", "d", "classes", "seed") * 2 + ("foo",))
        value = rng.choice(("2", "3", "7", "12", "0", "-1", "2.5", "1e3", "nan", "x"))
        pairs.append(f"{key}={value}" if rng.random() < 0.9
                     else rng.choice((key, f"{key}={value},1", f"{key}={value})")))
    return pairs


LIBSVM_VALUES = ("0.5", "-1.25", "1e-300", "2", "1e308", "0", "-0.0")
LIBSVM_BAD = ("1:nan", "2:inf", "0:1", "x:1", "2:", "7", "1000000000:1", "1:1 1:2", "a", "nan")


# bytes that are not UTF-8: a UTF-16 byte order mark, a lone continuation
# byte, a lead byte without its continuation
NOT_UTF8 = (b"\xff\xfe", b"\x80", b"\xc3(")


def fuzz_libsvm(rng):
    """Random LIBSVM bytes: lines of a label and entries, one line in ten with a
    malformed token and one in twenty starting with bytes that are not UTF-8."""
    lines = []
    for _ in range(rng.randrange(6)):
        tokens = [rng.choice(("0", "1", "2", "-1", "1.5"))]
        tokens += [f"{j}:{rng.choice(LIBSVM_VALUES)}"
                   for j in sorted(rng.sample(range(1, 6), rng.randrange(4)))]
        if rng.random() < 0.1:
            tokens[rng.randrange(len(tokens))] = rng.choice(LIBSVM_BAD)
        lines.append(" ".join(tokens).encode())
        if rng.random() < 0.05:
            lines[-1] = rng.choice(NOT_UTF8) + lines[-1]
    return b"\n".join(lines)


def test_spec_fuzz_runs_or_fails_as_config_or_run_error(tmp_path, monkeypatch):
    # every pair of random problem and policy specs runs 20 steps, with a
    # random sampler and batch, or fails as a configuration error or a
    # policy's failure at a step: no other exception, and no RuntimeWarning.
    # So does every random `datagen` call, and a LIBSVM file of random text
    # loads or fails as a parse error; logistic_file reads a fixed dataset
    # or the latest random text
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 4096)  # index 1e9 is over it
    data, text, generated = tmp_path / "data.svm", tmp_path / "text.svm", tmp_path / "gen.svm"
    write_libsvm(make_blobs_dataset(12, 3, 3, 0), data)
    rng, ran, made, loaded = random.Random(0), 0, 0, 0
    for i in range(1000):
        if i % 10 == 0:
            try:
                cli.cmd_datagen(argparse.Namespace(kind="blobs", params=fuzz_datagen(rng),
                                                   out=str(generated)))
                made += 1
            except ConfigError:
                pass
        if i % 4 == 0:
            text.write_bytes(fuzz_libsvm(rng))
            try:
                load_libsvm(text)
                loaded += 1
            except ParseError:
                pass
        path = str(data if i % 2 else text)
        cfg = ExperimentConfig(fuzz_spec(rng, specs.PROBLEMS, path),
                               fuzz_spec(rng, specs.POLICIES, path), steps=20,
                               seeds=(0, 1), sampler=rng.choice(SAMPLERS),
                               batch_size=rng.choice((1, 2, 5)), cadence=rng.choice((1, 7)))
        try:
            write_traces(cli._build_run(cfg), [])
            ran += 1
        except (ConfigError, RunError):
            pass
    assert ran > 200 and made > 20 and loaded > 100, (ran, made, loaded)


# (good, bad) values that the config fuzz draws for each key besides problem
# and policy, a bad one (empty, non-numeric or out of range) one time in ten;
# steps stay at 50 or below and seeds at 5 or fewer
CONFIG_VALUES = {
    "steps": (("1", "20", "50"), ("0", "-3", "2.5", "", "x")),
    "seeds": (("0", "0,1", "0,1,2,3,4", " 4, 2 "), ("3,3", "-1", "", "a", "1,,2")),
    "sampler": (SAMPLERS, ("bogus", "")),
    "batch_size": (("1", "2", "5"), ("0", "", "x")),
    "cadence": (("1", "7"), ("0", "", "x")),
    "x0": (("0.5", "-2"), ("1,2", "nan", "1e308", "", "x")),
    "out": (("elsewhere",), ("",)),
    "axis": (("sigma",), ("",)),
    "values": (("0.1,1",), ("", "x")),
}
# lines that are not a known key's: comments and blank lines, which parse,
# and an unknown key, lines without '=' and bytes that are not UTF-8, which do not
HARMLESS_LINES = (b"# a comment", b"", b"   ", b"#steps = 1000")
BAD_LINES = (b"foo = 1", b"Steps = 5", b"= 3", b"steps", b"problem two_quadratics()") + NOT_UTF8


def fuzz_config(rng, path):
    """Random config-file bytes: problem and policy specs (one left out a time in
    twenty), a steps line, up to four more keys, one key repeated a time in ten,
    and in one draw in ten a line that is not a key's."""
    lines = [f"problem = {fuzz_spec(rng, specs.PROBLEMS, path)}",
             f"policy = {fuzz_spec(rng, specs.POLICIES, path)}"]
    if rng.random() < 0.05:
        del lines[rng.randrange(2)]
    keys = ["steps"] + rng.sample(list(CONFIG_VALUES)[1:], rng.randrange(5))
    if rng.random() < 0.1:
        keys.append(rng.choice(keys))
    lines += [f"{key} = {rng.choice(CONFIG_VALUES[key][rng.random() < 0.1])}" for key in keys]
    lines = [line.encode() for line in lines]
    lines += rng.sample(HARMLESS_LINES, rng.randrange(3))
    if rng.random() < 0.1:
        lines.append(rng.choice(BAD_LINES))
    rng.shuffle(lines)
    return b"\n".join(lines) + b"\n"


def test_config_fuzz_exits_with_a_status(tmp_path, monkeypatch):
    # `ngn run` on random config text, in process: every draw returns 0, 1, 2
    # or 3 and raises nothing. Problems come from the generated families and
    # from this test's own LIBSVM files, a fixed dataset and random text
    monkeypatch.setattr(objectives, "MAX_DENSE_ENTRIES", 4096)  # index 1e9 is over it
    data, text, cfg = tmp_path / "data.svm", tmp_path / "text.svm", tmp_path / "fuzz.cfg"
    write_libsvm(make_blobs_dataset(12, 3, 3, 0), data)
    rng, codes = random.Random(1), []
    for i in range(300):
        if i % 10 == 0:
            text.write_bytes(fuzz_libsvm(rng))
        cfg.write_bytes(fuzz_config(rng, str(data if i % 2 else text)))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]))
    counts = collections.Counter(codes)
    assert set(counts) <= {0, 1, 2, 3}, counts
    assert counts[0] > 30 and counts[2] > 100, counts
