"""Property suites behind the verify command."""

import pytest

import lpnse.verify
from lpnse.verify import (SuiteResult, run_suites, suite_bkm, suite_bony,
                          suite_bernstein, suite_lp, suite_solver)


def test_suite_result_table_and_pass():
    res = SuiteResult("demo")
    res.add("alpha", 0.5, 1.0)
    res.add("beta", 2.0, 1.0)
    assert not res.passed
    text = res.table()
    assert "suite: demo" in text and "FAIL" in text
    res2 = SuiteResult("demo2")
    res2.add("alpha", 0.5, 1.0)
    assert res2.passed and "=> PASS" in res2.table()


def test_suite_lp_passes():
    res = suite_lp(n=32)
    assert res.passed
    assert len(res.rows) >= 8


def test_suite_bony_passes():
    assert suite_bony(n=32, pairs=3).passed


def test_suite_bony_negative_control():
    # skipping the padded products must break the exact identities
    res = suite_bony(n=32, pairs=2, dealias=False)
    assert not res.passed
    failed = [check for check, _, _, ok in res.rows if not ok]
    assert any("bony residual" in check for check in failed)
    assert any("cancellation" in check for check in failed)


def test_suite_bernstein_small_ensemble():
    res = suite_bernstein(n=32, ensemble=10)
    assert res.passed
    assert set(res.reports) == {"bernstein_forward", "bernstein_reverse"}


def test_suite_bkm_small_ensemble():
    res = suite_bkm(ns=(32, 64), ensemble=5)
    assert res.passed


def test_suite_solver_passes(monkeypatch, solver_checks):
    # the suite's rows are checked on criterion 5's runs, which the
    # session fixture shares instead of running the solver a second time
    def checks_2d(seed):
        assert seed == 3
        return solver_checks["2d"][0]

    monkeypatch.setattr(lpnse.verify, "solver_checks_2d", checks_2d)
    monkeypatch.setattr(lpnse.verify, "solver_checks_3d",
                        lambda: solver_checks["3d"][0])
    assert suite_solver().passed


def test_run_suites_dispatch():
    (res,) = run_suites(["lp"], n=32)
    assert res.name == "lp"
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["nope"])
