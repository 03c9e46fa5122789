import math

import pytest

from loopbundle.report import VerificationReport


def test_add_folds_a_repeated_name_into_one_case():
    report = VerificationReport(suite="s")
    for r in (1e-3, 5e-3, 2e-3):
        report.add("a", r, 1e-2, 3)
    assert len(report.cases) == 1
    assert report.cases[0].max_residual == 5e-3
    assert report.passed


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_add_keeps_non_finite_residuals(bad):
    report = VerificationReport(suite="s")
    for r in (1e-3, bad, 2e-3):
        report.add("a", r, 1e-2, 3)
    worst = report.cases[0].max_residual
    assert math.isnan(worst) if math.isnan(bad) else worst == math.inf
    assert not report.passed


def test_add_first_negative_zero_reads_zero():
    report = VerificationReport(suite="s")
    report.add("a", -0.0, 1e-2, 1)
    assert math.copysign(1.0, report.cases[0].max_residual) == 1.0


def test_add_keeps_first_use_order_tolerance_and_samples():
    report = VerificationReport(suite="s")
    report.add("b", 1.0, 2.0, 7)
    report.add("a", 0.5, 1.0, 4)
    report.add("b", 1.5, 9.0, 99)
    assert [c.name for c in report.cases] == ["b", "a"]
    b = report.cases[0]
    assert (b.max_residual, b.tolerance, b.samples) == (1.5, 2.0, 7)
