"""Acceptance gate: one test per headline criterion, each printing a
pass/fail line with the measured quantity and its bound."""

import hashlib
import time

import pytest

from ngn import verify
from ngn.cli import main as cli_main
from test_golden import CONTRACTION_ROW, LOGISTIC_LARGE_SIGMA_ROW, STABILITY_ROWS


def emit(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} — {detail}")


def test_criterion_01_lemma_fundamental_equality():
    t0 = time.time()
    report = verify.check_lemma_equality(trials=10_000)
    elapsed = time.time() - t0
    emit(1, report.passed,
         f"identity residual {report.measured:.3e} <= 1e-10 ({elapsed:.2f}s)")
    assert report.passed
    assert elapsed < 1.0


def test_criterion_02_lemma_stepsize_bounds():
    t0 = time.time()
    reports = [verify.check_lemma_bounds(problem=p, steps=1000)
               for p in ("quadratic1d", "logistic")]
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports)
    worst = max(r.measured for r in reports)
    emit(2, ok, f"worst bound violation {worst:.3e} <= 1e-12 ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 5.0


def test_criterion_03_lemma_fundamental_inequality():
    t0 = time.time()
    reports = []
    for problem in ("two_quadratics", "quadratic1d"):  # sigma = 0.1/L, 0.5/L and 2/L
        reports += verify.check_lemma_inequality(problem=problem, steps=1000)
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports)
    worst = max(r.measured for r in reports)
    emit(3, ok, f"worst signed violation {worst:.3e} <= 1e-10 ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 10.0


def test_criterion_04_stability_reproduction():
    t0 = time.time()
    reports = verify.check_never_diverge()
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports)
    tail = [r for r in reports if r.name.startswith("fig2_stepsize")][0]
    emit(4, ok,
         f"NGN bounded on sigma grid, unstable GD flagged, tail stepsize "
         f"{tail.measured:.5f} vs 2/lambda = {tail.bound:.5f} ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 5.0
    assert [r.csv_row() for r in reports] == STABILITY_ROWS


def test_criterion_05_deterministic_contraction():
    t0 = time.time()
    report = verify.check_deterministic_contraction()
    elapsed = time.time() - t0
    emit(5, report.passed,
         f"worst per-step ratio excess {report.measured:.3e} <= 0 ({elapsed:.2f}s)")
    assert report.passed
    assert elapsed < 1.0
    assert report.csv_row() == CONTRACTION_ROW


def test_criterion_06_convex_rate_monte_carlo():
    t0 = time.time()
    report = verify.check_convex_rate(sigma=0.05, steps=100_000, n_seeds=20)
    elapsed = time.time() - t0
    emit(6, report.passed,
         f"mean suboptimality {report.measured:.3e} <= RHS {report.bound:.3e} "
         f"({elapsed:.1f}s)")
    assert report.passed
    assert elapsed < 60.0


def test_criterion_07_nonconvex_rate_monte_carlo():
    t0 = time.time()
    report = verify.check_nonconvex_rate(steps=100_000, n_seeds=20)
    elapsed = time.time() - t0
    emit(7, report.passed,
         f"mean squared gradient {report.measured:.3e} <= RHS {report.bound:.3e} "
         f"({elapsed:.1f}s)")
    assert report.passed
    assert elapsed < 60.0


def test_criterion_08_annealed_rate():
    t0 = time.time()
    reports = verify.check_annealed_rate(steps_grid=(1000, 10_000, 100_000))
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports)
    emit(8, ok, f"annealed bound holds at each K and decreases across K "
                f"({elapsed:.1f}s)")
    assert ok
    assert elapsed < 120.0


def test_criterion_09_logistic_large_sigma():
    t0 = time.time()
    report = verify.check_logistic_large_sigma(sigma=30.0, steps=10_000)
    elapsed = time.time() - t0
    emit(9, report.passed,
         f"sigma=30 logistic run finite, final loss {report.measured:.4f} "
         f"({elapsed:.1f}s)")
    assert report.passed
    assert elapsed < 30.0
    assert report.csv_row() == LOGISTIC_LARGE_SIGMA_ROW


def test_criterion_10_gradient_oracle():
    t0 = time.time()
    report = verify.check_gradients(points_per_family=100)
    elapsed = time.time() - t0
    emit(10, report.passed,
         f"max relative gradient error {report.measured:.3e} <= 1e-5 "
         f"({elapsed:.2f}s)")
    assert report.passed
    assert elapsed < 5.0


def test_criterion_11_ggn_reductions():
    t0 = time.time()
    report = verify.check_ggn_reductions(trials=10_000)
    elapsed = time.time() - t0
    emit(11, report.passed,
         f"max reduction mismatch {report.measured:.3e} <= 1e-12 ({elapsed:.2f}s)")
    assert report.passed
    assert elapsed < 1.0


def test_criterion_12_baseline_sanity():
    t0 = time.time()
    report = verify.check_baseline_sanity(trials=10_000)
    elapsed = time.time() - t0
    emit(12, report.passed,
         f"monotone AdaGrad, SPS cap, harmonic identity; worst excess "
         f"{report.measured:.3e} ({elapsed:.2f}s)")
    assert report.passed
    assert elapsed < 1.0


def test_criterion_13_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "problem = two_quadratics()\n"
        "policy = ngn(sigma=0.5)\n"
        "steps = 500\n"
        "seeds = 0,1\n"
        "cadence = 100\n"
    )
    hashes = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256()
        for name in ("trace_seed0.csv", "trace_seed1.csv", "aggregate.csv"):
            digest.update((out / name).read_bytes())
        hashes.append(digest.hexdigest())
    elapsed = time.time() - t0
    ok = hashes[0] == hashes[1]
    emit(13, ok, f"double-run hash {hashes[0][:12]} reproduced ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 10.0
