from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brocard.conditions import (
    NotASolutionError,
    factor_structure,
    factorial_mod,
    is_certificate,
    legendre_certificate,
    verify,
)
from brocard import factorial_engine
from brocard.exact_arith import is_prime_64, isqrt
from brocard.factorial_engine import CeilingError, primes_above

KNOWN_SOLUTIONS = {4: 5, 5: 11, 7: 71}


def test_candidate_m_examples():
    # the candidate m is k + 1
    assert verify(4).k + 1 == 5
    assert verify(7).k + 1 == 71
    assert verify(9).k + 1 == 603


def test_defect_examples():
    assert verify(3).defect == 2
    assert verify(4).defect == 8
    assert verify(7).defect == 140
    assert verify(10).defect == 3584


def test_verify_solutions():
    for n, m in KNOWN_SOLUTIONS.items():
        report = verify(n)
        assert report.is_solution
        assert report.k + 1 == m
        assert report.k == m - 1
        assert report.k % 2 == 0
        assert report.k * (report.k + 2) == math.factorial(n)
        assert report.defect == 2 * report.k
        assert m * m == math.factorial(n) + 1


def test_verify_non_solutions():
    for n in (0, 1, 2, 3, 6, 8, 9, 10, 11, 12, 50):
        report = verify(n)
        assert not report.is_solution
        assert (report.k + 1) ** 2 != math.factorial(n) + 1
        assert report.defect != 2 * report.k
        # dual route: direct square test on n! + 1
        f = math.factorial(n)
        assert isqrt(f + 1) ** 2 != f + 1


def test_verify_respects_ceiling(monkeypatch):
    monkeypatch.setattr(factorial_engine, "EXACT_FACTORIAL_CEILING", 999)
    with pytest.raises(CeilingError):
        verify(1000)


def test_bound_check_small_range():
    # n! <= k(k + 2), with equality exactly at solutions
    for n in range(0, 200):
        k, f = verify(n).k, math.factorial(n)
        assert f <= k * (k + 2)
        assert (f == k * (k + 2)) == (n in KNOWN_SOLUTIONS)


def test_theorem_suite_small():
    # the acceptance suite runs this to 2000; keep a quick version here
    for n in range(2, 300):
        report = verify(n)
        k, f = report.k, math.factorial(n)
        assert 0 <= report.defect <= 2 * k
        assert (report.defect == 2 * k) == (n in KNOWN_SOLUTIONS)
        assert f <= k * (k + 2)
        assert (f < k * (k + 2)) == (n not in KNOWN_SOLUTIONS)
        assert k * k - 1 < f  # (k-1)(k+1) can never reach n!


def test_factor_structure_examples():
    fs = factor_structure(4)
    assert (fs.a, fs.e, fs.b) == (3, 3, 1)
    assert (2 * fs.a, fs.b << (fs.e - 1)) == (6, 4)
    fs = factor_structure(5)
    assert (fs.a, fs.e, fs.b) == (5, 3, 3)
    assert (2 * fs.a, fs.b << (fs.e - 1)) == (10, 12)
    fs = factor_structure(7)
    assert (fs.a, fs.e, fs.b) == (35, 4, 9)
    assert (2 * fs.a, fs.b << (fs.e - 1)) == (70, 72)


def test_factor_structure_invariants():
    for n in KNOWN_SOLUTIONS:
        fs = factor_structure(n)
        f = math.factorial(n)
        k = verify(n).k
        half_even, half_pow = 2 * fs.a, 2 ** (fs.e - 1) * fs.b
        assert fs.a % 2 == 1 and fs.b % 2 == 1
        assert half_even % 4 == 2
        # the two halves are the factors k and k + 2 of n!
        assert {half_even, half_pow} == {k, k + 2}
        assert abs(half_even - half_pow) == 2
        assert half_even * half_pow == f
        # e really is the 2-adic valuation of n!
        assert f % 2**fs.e == 0 and f % 2 ** (fs.e + 1) != 0
        assert math.gcd(fs.a, half_pow) == 1


def test_factor_structure_rejects_non_solution():
    for n in (2, 6, 10):
        with pytest.raises(NotASolutionError):
            factor_structure(n)


# ---------------------------------------------------------------------------
# Legendre certificates


def _euler_rejects(n, q):
    return pow((math.factorial(n) + 1) % q, (q - 1) // 2, q) == q - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 5))
def test_factorial_mod_matches_exact(n, rank):
    q = next(p for i, p in enumerate(primes_above(n)) if i == rank)
    assert factorial_mod(n, q) == math.factorial(n) % q


def test_factorial_mod_wilson_edges():
    assert factorial_mod(1008, 1009) == 1008  # (q - 1)! = -1
    assert factorial_mod(0, 3) == 1
    with pytest.raises(ValueError):
        factorial_mod(11, 11)


def test_certificate_is_first_rejecting_prime():
    for n in range(0, 400):
        q = legendre_certificate(n)
        if n in KNOWN_SOLUTIONS:
            assert q is None
            continue
        assert q is not None and q > n and is_prime_64(q) and _euler_rejects(n, q)
        assert not any(_euler_rejects(n, p) for p in range(max(n + 1, 3), q) if is_prime_64(p))
        assert is_certificate(n, q)


def test_certificate_checker_refuses_mutants():
    # n = 10: 10! + 1 = 11 * 329891 (symbol 0 at 11), a residue mod 17,
    # 13 rejects first; 15 and 21 are composite.
    assert legendre_certificate(10) == 13 and is_certificate(10, 13)
    assert (math.factorial(10) + 1) % 11 == 0
    assert not _euler_rejects(10, 17)
    for q in (15, 21, 1, 2, 7, 10, 11, 17, 14, 12):
        assert not is_certificate(10, q), q
    for n in range(2, 600):
        q = legendre_certificate(n)
        if q is None:
            continue
        mutants = {q - 2, q + 2, q + 1, q * 3, n, n - 1, 2}
        mutants |= {p for p in range(3, q) if is_prime_64(p)}  # at or below n, or non-rejecting
        for bad in mutants:
            assert not is_certificate(n, bad), (n, bad)
    assert not is_certificate(-1, 3)


def test_solutions_get_no_certificate_and_reach_the_exact_path(monkeypatch):
    import brocard.conditions as conditions

    for n, m in KNOWN_SOLUTIONS.items():
        assert legendre_certificate(n) is None
        report = verify(n, certify=True)
        assert report.is_solution and report.k + 1 == m and report.k == m - 1
        assert report.rejecting_prime is None
    monkeypatch.setattr(conditions, "CERTIFICATE_PRIMES", 500)
    for n in KNOWN_SOLUTIONS:
        assert legendre_certificate(n) is None


def test_verify_with_certificate_skips_exact_arithmetic(monkeypatch):
    import brocard.conditions as conditions

    def refuse(*args, **kwargs):
        raise AssertionError("exact arithmetic on the certificate path")

    monkeypatch.setattr(conditions, "factorial_exact", refuse)
    report = verify(10**8, certify=True)  # far above the ceiling
    assert not report.is_solution and report.k is None and report.defect is None
    assert is_certificate(10**8, report.rejecting_prime)
    # without certify, verify stays exact
    with pytest.raises(AssertionError):
        verify(9)


def test_verify_falls_back_when_budget_has_no_rejecting_prime(monkeypatch):
    import brocard.conditions as conditions

    # with a budget of one prime: an n whose first prime above it does not reject
    monkeypatch.setattr(conditions, "CERTIFICATE_PRIMES", 1)
    n = next(n for n in range(8, 200) if legendre_certificate(n) is None
             and n not in KNOWN_SOLUTIONS)
    report = verify(n, certify=True)
    assert report.rejecting_prime is None and report.k == isqrt(math.factorial(n))
    monkeypatch.setattr(factorial_engine, "EXACT_FACTORIAL_CEILING", n - 1)
    with pytest.raises(CeilingError):
        verify(n, certify=True)
