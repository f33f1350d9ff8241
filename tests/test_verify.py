import csv

import pytest

from ngn import stepsizes
from ngn.verify import (
    REPORT_HEADER,
    SUITES,
    CheckReport,
    check_baseline_sanity,
    check_deterministic_contraction,
    check_ggn_reductions,
    check_gradients,
    check_lemma_bounds,
    check_lemma_equality,
    check_lemma_inequality,
    run_suites,
)


def test_lemma_equality_check_passes():
    report = check_lemma_equality()
    assert report.passed
    assert report.measured <= 1e-10


def test_lemma_bounds_check_passes():
    assert check_lemma_bounds(problem="quadratic1d").passed


def test_lemma_inequality_check_passes():
    assert check_lemma_inequality(problem="two_quadratics", sigma=0.3).passed


def test_contraction_check_passes():
    assert check_deterministic_contraction().passed


def test_gradient_check_passes():
    assert check_gradients(points_per_family=20).passed


def test_ggn_and_baseline_checks_pass():
    assert check_ggn_reductions().passed
    assert check_baseline_sanity().passed


def test_injected_sign_bug_is_caught(monkeypatch):
    original = stepsizes._ngn_formula

    def broken(sigma, loss, gsq):
        return sigma / (1.0 - sigma * gsq / (2.0 * max(loss, stepsizes.F_FLOOR)))

    monkeypatch.setattr(stepsizes, "_ngn_formula", broken)
    report = check_lemma_equality()
    assert not report.passed
    monkeypatch.setattr(stepsizes, "_ngn_formula", original)


def test_suite_registry():
    assert set(SUITES) == {"lemmas", "stability", "gradients", "baselines", "rates"}
    with pytest.raises(ValueError):
        run_suites(["nonexistent"])


def test_report_csv_row_format():
    report = check_lemma_equality(trials=100)
    row = report.csv_row()
    assert row.startswith("lemma_fundamental_equality,")
    assert ",pass," in row or ",fail," in row


def test_report_rows_keep_seven_columns():
    reports = [check_deterministic_contraction(steps=20),
               CheckReport(name="list_param", params={"steps_grid": [5, 50, 500]},
                           measured=1.0, bound=2.0, passed=True)]
    width = len(REPORT_HEADER.split(","))
    rows = list(csv.reader(r.csv_row() for r in reports))
    assert rows[1][1] == "steps_grid=[5, 50, 500]"
    for row in rows:
        assert len(row) == width
        for cell in row[2:5] + row[6:]:
            float(cell)
