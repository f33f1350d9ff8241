import hashlib
import multiprocessing
import os

import pytest

from ngn import objectives, specs
from ngn.cli import main
from ngn.objectives import load_libsvm


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
    ("policy", "ngn(sigma=abc)"),
    ("problem", "logistic_file(path=no_such_file.svm)"),
    ("problem", "linear_regression(d=2.7)"),
    ("policy", "ngn(sigma=nan)"),
    ("policy", "ngn(sigma=inf)"),
    ("policy", "constant(gamma=nan)"),
    ("policy", "adagrad_norm(eta=nan, delta0=1)"),
    ("problem", "logistic_blobs(l2=nan)"),
    ("problem", "quadratic1d(lam=inf)"),
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


def test_negative_seed_offset_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed-offset", "-3"]) == 2
    assert "seeds must be >= 0, got -3" in capsys.readouterr().err
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


def test_verify_empty_selection(tmp_path):
    assert main(["verify", "--out", str(tmp_path)]) == 2


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
