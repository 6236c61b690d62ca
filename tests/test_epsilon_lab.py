from __future__ import annotations

import math
from decimal import Decimal, localcontext

import pytest

from brocard.cli_reporting import dispatch
from brocard.epsilon_lab import (
    FactorialRoot,
    admit_exact,
    check_f_monotone,
    epsilon_digits,
    epsilon_of_k,
    k_ratio_digits,
    nine_run,
)
from brocard import conditions, epsilon_lab, exact_arith
from brocard.exact_arith import BitBudgetError, isqrt, sqrt_digits


def _eps(n: int, d: int):
    return epsilon_digits(FactorialRoot(n), d)


def _ratio(n: int, d: int):
    return k_ratio_digits(FactorialRoot(n), d)


def _nine_run(n: int):
    return nine_run(FactorialRoot(n))


def _decimal_epsilon_mantissa(n: int, d: int) -> int:
    # independent route: correctly-rounded Decimal sqrt, then truncate
    with localcontext() as ctx:
        ctx.prec = d + 30
        eps = Decimal(math.factorial(n)).sqrt() - isqrt(math.factorial(n))
        return int(eps * 10**d)


def test_epsilon_digits_examples():
    assert str(_eps(2, 9)) == "0.414213562"
    assert str(_eps(7, 10)) == "0.9929573971"
    assert str(_eps(0, 5)) == "0.00000"
    assert str(_eps(1, 5)) == "0.00000"


def test_epsilon_digits_against_decimal_oracle():
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 20, 30):
        ours = _eps(n, 30).mantissa
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
            assert _eps(n, d) == epsilon_of_k(k, d)


# ---------------------------------------------------------------------------
# ratio


def test_k_ratio_exact_at_solutions():
    assert str(_ratio(4, 2)) == "4.00"
    assert str(_ratio(5, 2)) == "10.00"
    assert str(_ratio(7, 2)) == "70.00"
    # the ratio equals k exactly there, at any precision
    assert str(_ratio(7, 12)) == "70.000000000000"


def test_k_ratio_examples():
    assert str(_ratio(2, 9)) == "0.146446609"
    assert str(_ratio(6, 8)) == "2.07430412"
    assert str(_ratio(10, 9)) == "7.496063447"


def test_k_ratio_against_decimal_oracle():
    for n in (2, 3, 6, 8, 9, 10, 11, 13, 17):
        d = 12
        with localcontext() as ctx:
            ctx.prec = 80
            f = math.factorial(n)
            eps = Decimal(f).sqrt() - isqrt(f)
            ratio = eps * eps / (2 * (1 - eps))
            theirs = int(ratio * 10**d)
        ours = _ratio(n, d).mantissa
        assert abs(ours - theirs) <= 1, n


def test_k_ratio_prefix_stability():
    # more digits never rewrite earlier ones (exactness of truncation)
    for n in (2, 6, 9, 11):
        prev = _ratio(n, 6).mantissa
        for d in range(7, 24):
            cur = _ratio(n, d).mantissa
            assert cur // 10 ** (d - 6) == prev


def test_k_ratio_rejects_zero_epsilon():
    with pytest.raises(ValueError):
        _ratio(0, 5)
    with pytest.raises(ValueError):
        _ratio(1, 5)


# ---------------------------------------------------------------------------
# nine runs


def test_nine_run_examples():
    assert _nine_run(4).nine_run == 0  # eps = 0.898...
    assert _nine_run(5).nine_run == 1  # eps = 0.954...
    assert _nine_run(7).nine_run == 2  # eps = 0.992...
    assert _nine_run(9).nine_run == 0  # eps = 0.395...
    for n in (4, 5, 7, 9):
        profile = _nine_run(n)
        assert profile.nine_run < profile.digits_computed


def test_nine_run_profile_fields():
    profile = _nine_run(7)
    assert profile.n == 7
    assert profile.digits_computed == 64
    assert profile.epsilon.frac_digits == 64
    assert profile.epsilon.fraction_digits().startswith("99295739")


def test_nine_run_cap_reports_lower_bound(monkeypatch):
    monkeypatch.setattr(epsilon_lab, "NINE_RUN_CAP", 1)
    capped = _nine_run(7)
    assert capped.nine_run == 1
    assert capped.nine_run == capped.digits_computed
    monkeypatch.setattr(epsilon_lab, "NINE_RUN_CAP", 2)
    capped = _nine_run(7)
    assert capped.nine_run == 2
    assert capped.nine_run == capped.digits_computed
    monkeypatch.setattr(epsilon_lab, "NINE_RUN_CAP", 3)
    exact = _nine_run(7)
    assert exact.nine_run == 2
    assert exact.nine_run < exact.digits_computed


def test_nine_run_doubles_its_window_up_to_the_cap(monkeypatch):
    # from a 1-digit window: 1 digit is all 9s, so are 2, and 4 show the
    # run of 2 (eps = 0.9929...), exactly
    monkeypatch.setattr(epsilon_lab, "NINE_RUN_START", 1)
    doubled = _nine_run(7)
    assert (doubled.nine_run, doubled.digits_computed) == (2, 4)
    assert doubled.nine_run < doubled.digits_computed
    # a cap of 2 stops the doubling at 2 digits, both 9s: a lower bound
    monkeypatch.setattr(epsilon_lab, "NINE_RUN_CAP", 2)
    capped = _nine_run(7)
    assert (capped.nine_run, capped.digits_computed) == (2, 2)
    assert capped.nine_run == capped.digits_computed


def test_nine_run_respects_bit_budget(monkeypatch):
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", 100)
    with pytest.raises(BitBudgetError):
        _nine_run(9)


def test_budget_refused_before_the_factorial_is_built():
    # from about n = 3.32 * 10**6, n! alone is past the budget: admission
    # refuses it at any precision without building anything, while the
    # ceiling alone (verify's admission) lets it through
    for d in (0, 1, 9, 64):
        with pytest.raises(BitBudgetError):
            admit_exact(4_000_000, d)
    admit_exact(4_000_000)


def _edge_argv(fn: str, n: int, d: int) -> list[str]:
    """The command whose admission precision fn's first root sets."""
    if fn == "k_ratio_digits":
        return ["table", "--from", str(n), "--to", str(n), "--digits", str(d)]
    argv = ["epsilon", str(n), "--digits", str(d)]
    return argv + ["--nine-run"] if fn == "nine_run" else argv


# Each command's admission precision at --digits d: `epsilon` reads d
# digits, `epsilon --nine-run` starts its run at 64, and a `table` row's
# ratio takes its root at d + 10.
_ADMITTED_AT = {"epsilon_digits": lambda d: d, "nine_run": lambda d: max(d, 64),
                "k_ratio_digits": lambda d: d + 10}


@pytest.mark.parametrize("fn", list(_ADMITTED_AT))
def test_budget_refuses_what_sqrt_digits_refuses(monkeypatch, capsys, fn):
    # a command refuses n exactly when sqrt_digits refuses n! at the
    # command's admission precision; most are refused before any n! is
    # built, and only a few at the edge are built first
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", 3000)
    built = []

    def build(n):
        built.append(n)
        return math.factorial(n)

    monkeypatch.setattr(epsilon_lab, "factorial_exact", build)
    monkeypatch.setattr(conditions, "factorial_exact", build)
    for d in (1, 9, 64, 100):
        expected, early, late = set(), set(), set()
        # the edge lies between n = 328 (table, d = 100) and 413 (epsilon, d = 1)
        for n in range(250, 500):
            try:
                sqrt_digits(math.factorial(n), _ADMITTED_AT[fn](d))
            except BitBudgetError:
                expected.add(n)
            built.clear()
            code = dispatch(_edge_argv(fn, n, d))
            err = capsys.readouterr().err
            if code:
                assert code == 2 and err.startswith("limit: "), err
                (late if built else early).add(n)
        assert early | late == expected
        assert early and len(late) <= 3
        assert max(late, default=0) < min(early)


def test_budget_never_refuses_the_ratio_at_a_solution(monkeypatch, capsys):
    # a table admitted at d + 10 digits takes no later root at a solution,
    # where the ratio is k exactly: the least budget that fits 7! at 22
    # digits prints row 7, and one bit less refuses it
    need = math.factorial(7).bit_length() + int(2 * 22 * exact_arith._LOG2_10) + 2
    argv = ["table", "--from", "7", "--to", "7", "--digits", "12"]
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", need)
    assert dispatch(argv) == 0
    assert "70.000000000000  yes" in capsys.readouterr().out
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", need - 1)
    assert dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("limit: ")


# ---------------------------------------------------------------------------
# one root per n


def test_root_reads_truncate_its_highest_root(monkeypatch):
    # reads at or below the highest precision so far take no new root
    roots = []
    monkeypatch.setattr(epsilon_lab, "isqrt", lambda x: roots.append(x) or math.isqrt(x))
    f = math.factorial(30)
    root = FactorialRoot(30)
    for d in (30, 5, 0, 30, 12, 31, 30, 80, 1):
        assert root.scaled(d) == math.isqrt(f * 10 ** (2 * d)), d
    assert len(roots) == 3
    with pytest.raises(ValueError):
        root.scaled(-1)


def test_root_accepts_a_factorial_already_built(monkeypatch):
    def refuse(n):
        raise AssertionError(f"{n}! built")

    monkeypatch.setattr(epsilon_lab, "factorial_exact", refuse)
    root = FactorialRoot(11, math.factorial(11))
    assert str(epsilon_digits(root, 9)) == "0.974358922"
    assert str(k_ratio_digits(root, 9)) == "18.512780969"


def test_k_ratio_widens_a_straddling_bracket(monkeypatch):
    # with no guard digits the first bracket nearly always straddles a
    # d-digit boundary; each retry must land on the same exact truncation
    expected = {n: _ratio(n, 6) for n in range(2, 40)}
    roots = []
    monkeypatch.setattr(epsilon_lab, "RATIO_GUARD", 0)
    monkeypatch.setattr(epsilon_lab, "isqrt", lambda x: roots.append(x) or math.isqrt(x))
    for n, value in expected.items():
        assert _ratio(n, 6) == value, n
    assert len(roots) > len(expected)


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
