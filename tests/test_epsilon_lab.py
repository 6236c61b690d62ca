from __future__ import annotations

import math
from decimal import Decimal, localcontext

import pytest

from brocard.epsilon_lab import (
    check_f_monotone,
    epsilon_digits,
    epsilon_of_k,
    k_ratio_digits,
    nine_run,
)
from brocard import epsilon_lab, exact_arith
from brocard.exact_arith import BitBudgetError, isqrt, sqrt_digits


def _decimal_epsilon_mantissa(n: int, d: int) -> int:
    # independent route: correctly-rounded Decimal sqrt, then truncate
    with localcontext() as ctx:
        ctx.prec = d + 30
        eps = Decimal(math.factorial(n)).sqrt() - isqrt(math.factorial(n))
        return int(eps * 10**d)


def test_epsilon_digits_examples():
    assert str(epsilon_digits(2, 9)) == "0.414213562"
    assert str(epsilon_digits(7, 10)) == "0.9929573971"
    assert str(epsilon_digits(0, 5)) == "0.00000"
    assert str(epsilon_digits(1, 5)) == "0.00000"


def test_epsilon_digits_against_decimal_oracle():
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 20, 30):
        ours = epsilon_digits(n, 30).mantissa
        theirs = _decimal_epsilon_mantissa(n, 30)
        assert abs(ours - theirs) <= 1, n


def test_epsilon_of_k_examples():
    assert str(epsilon_of_k(1, 9)) == "0.732050807"
    assert str(epsilon_of_k(4, 9)) == "0.898979485"
    assert str(epsilon_of_k(10, 8)) == "0.95445115"


def test_epsilon_of_k_rejects_bad_k():
    with pytest.raises(ValueError):
        epsilon_of_k(0, 5)


def test_epsilon_consistency_at_solutions():
    # n! == k(k+2) exactly at solutions, so both routes see the same digits
    for n in (4, 5, 7):
        k = isqrt(math.factorial(n))
        for d in (5, 17, 40):
            assert epsilon_digits(n, d) == epsilon_of_k(k, d)


# ---------------------------------------------------------------------------
# ratio


def test_k_ratio_exact_at_solutions():
    assert str(k_ratio_digits(4, 2)) == "4.00"
    assert str(k_ratio_digits(5, 2)) == "10.00"
    assert str(k_ratio_digits(7, 2)) == "70.00"
    # the ratio equals k exactly there, at any precision
    assert str(k_ratio_digits(7, 12)) == "70.000000000000"


def test_k_ratio_examples():
    assert str(k_ratio_digits(2, 9)) == "0.146446609"
    assert str(k_ratio_digits(6, 8)) == "2.07430412"
    assert str(k_ratio_digits(10, 9)) == "7.496063447"


def test_k_ratio_against_decimal_oracle():
    for n in (2, 3, 6, 8, 9, 10, 11, 13, 17):
        d = 12
        with localcontext() as ctx:
            ctx.prec = 80
            f = math.factorial(n)
            eps = Decimal(f).sqrt() - isqrt(f)
            ratio = eps * eps / (2 * (1 - eps))
            theirs = int(ratio * 10**d)
        ours = k_ratio_digits(n, d).mantissa
        assert abs(ours - theirs) <= 1, n


def test_k_ratio_prefix_stability():
    # more digits never rewrite earlier ones (exactness of truncation)
    for n in (2, 6, 9, 11):
        prev = k_ratio_digits(n, 6).mantissa
        for d in range(7, 24):
            cur = k_ratio_digits(n, d).mantissa
            assert cur // 10 ** (d - 6) == prev


def test_k_ratio_rejects_zero_epsilon():
    with pytest.raises(ValueError):
        k_ratio_digits(0, 5)
    with pytest.raises(ValueError):
        k_ratio_digits(1, 5)


# ---------------------------------------------------------------------------
# nine runs


def test_nine_run_examples():
    assert nine_run(4).nine_run == 0  # eps = 0.898...
    assert nine_run(5).nine_run == 1  # eps = 0.954...
    assert nine_run(7).nine_run == 2  # eps = 0.992...
    assert nine_run(9).nine_run == 0  # eps = 0.395...
    for n in (4, 5, 7, 9):
        assert not nine_run(n).nine_run_is_lower_bound


def test_nine_run_profile_fields():
    profile = nine_run(7)
    assert profile.n == 7
    assert profile.digits_computed == 64
    assert profile.epsilon.frac_digits == 64
    assert profile.epsilon.fraction_digits().startswith("99295739")


def test_nine_run_cap_reports_lower_bound(monkeypatch):
    monkeypatch.setattr(epsilon_lab, "NINE_RUN_CAP", 1)
    capped = nine_run(7)
    assert capped.nine_run == 1
    assert capped.nine_run_is_lower_bound
    monkeypatch.setattr(epsilon_lab, "NINE_RUN_CAP", 2)
    capped = nine_run(7)
    assert capped.nine_run == 2
    assert capped.nine_run_is_lower_bound
    monkeypatch.setattr(epsilon_lab, "NINE_RUN_CAP", 3)
    exact = nine_run(7)
    assert exact.nine_run == 2
    assert not exact.nine_run_is_lower_bound


def test_nine_run_respects_bit_budget(monkeypatch):
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", 100)
    with pytest.raises(BitBudgetError):
        nine_run(9)


def test_budget_refused_before_the_factorial_is_built(monkeypatch):
    # from about n = 3.32 * 10**6, n! alone is past the budget, and it is
    # refused before n! is built
    def refuse(n):
        raise AssertionError(f"{n}! built")

    monkeypatch.setattr(epsilon_lab, "factorial_exact", refuse)
    for call in (lambda: epsilon_digits(4_000_000, 9), lambda: nine_run(4_000_000),
                 lambda: k_ratio_digits(4_000_000, 9)):
        with pytest.raises(BitBudgetError):
            call()


# The precision of each function's first sqrt_digits call, given d
# (nine_run's is NINE_RUN_CAP, set to d).
_FIRST_PRECISION = {epsilon_digits: lambda d: d, nine_run: lambda cap: min(64, cap),
                    k_ratio_digits: lambda d: d + 10}


@pytest.mark.parametrize("fn", list(_FIRST_PRECISION), ids=lambda fn: fn.__name__)
def test_budget_refuses_what_sqrt_digits_refuses(monkeypatch, fn):
    # every n is refused exactly when sqrt_digits refuses the built n! at
    # the function's first precision; most are refused before n! is
    # built, and only a few at the edge are built first
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", 3000)
    built = []
    monkeypatch.setattr(epsilon_lab, "factorial_exact",
                        lambda n: built.append(n) or math.factorial(n))
    for d in (1, 9, 64):
        monkeypatch.setattr(epsilon_lab, "NINE_RUN_CAP", d)
        call = nine_run if fn is nine_run else (lambda n: fn(n, d))
        expected, early, late = set(), set(), set()
        for n in range(8, 600):
            try:
                sqrt_digits(math.factorial(n), _FIRST_PRECISION[fn](d))
            except BitBudgetError:
                expected.add(n)
            built.clear()
            try:
                call(n)
            except BitBudgetError:
                (late if built else early).add(n)
        assert early | late == expected
        assert early and len(late) <= 3
        assert max(late, default=0) < min(early)


def test_budget_never_refuses_the_ratio_at_a_solution(monkeypatch):
    # at a solution the ratio takes no root, so no budget refuses it
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", 50)
    assert str(k_ratio_digits(7, 12)) == "70.000000000000"
    with pytest.raises(BitBudgetError):
        k_ratio_digits(8, 12)


# ---------------------------------------------------------------------------
# monotonicity of f(k) = sqrt(k^2 + 2k) - k


def test_check_f_monotone_small():
    assert check_f_monotone(1, 100, 10)
    assert check_f_monotone(50, 60, 8)


def test_check_f_monotone_preconditions():
    with pytest.raises(ValueError):
        check_f_monotone(5, 5, 12)
    with pytest.raises(ValueError):
        check_f_monotone(10, 5, 12)
    with pytest.raises(ValueError):
        check_f_monotone(1, 10**4, 8)  # not enough digits to separate
    with pytest.raises(ValueError):
        check_f_monotone(0, 10, 12)
