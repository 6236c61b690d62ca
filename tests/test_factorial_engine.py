from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brocard import factorial_engine
from brocard.factorial_engine import (
    MAX_SUPPORTED_N,
    CeilingError,
    PrimePool,
    build_prime_pool,
    factorial_exact,
    is_factorial,
    seed_state,
)
from brocard.qr_filter import nonresidue_bits, scan_piece

# ---------------------------------------------------------------------------
# prime pool


def test_build_prime_pool_examples():
    assert build_prime_pool(10, 3).primes == (11, 13, 17)
    assert build_prime_pool(10**6, 1).primes == (1000003,)
    assert build_prime_pool(0, 4).primes == (3, 5, 7, 11)


def test_build_prime_pool_never_contains_two():
    assert 2 not in build_prime_pool(0, 10).primes
    assert 2 not in build_prime_pool(1, 10).primes


def test_build_prime_pool_rejects_huge_ceiling():
    with pytest.raises(CeilingError):
        build_prime_pool(2**32, 1)
    # the boundary itself is allowed
    assert build_prime_pool(MAX_SUPPORTED_N, 1).primes[0] > MAX_SUPPORTED_N


def test_build_prime_pool_rejects_bad_args():
    with pytest.raises(ValueError):
        build_prime_pool(-1, 3)
    with pytest.raises(ValueError):
        build_prime_pool(10, 0)


def test_pool_invariants_spot_checks():
    for max_n, count in ((5, 8), (100, 48), (99991, 5)):
        pool = build_prime_pool(max_n, count)
        assert len(pool.primes) == count
        assert all(p > max_n for p in pool.primes)
        assert all(p % 2 == 1 for p in pool.primes)
        assert list(pool.primes) == sorted(set(pool.primes))


def test_prime_pool_validates_on_construction():
    with pytest.raises(ValueError, match="odd, increasing, above max_n"):
        PrimePool(max_n=10, primes=(7, 11))
    with pytest.raises(ValueError, match="odd, increasing, above max_n"):
        PrimePool(max_n=10, primes=(13, 11))
    with pytest.raises(ValueError, match="non-empty"):
        PrimePool(max_n=10, primes=())


def test_validation_holds_under_python_O():
    # python -O strips asserts; a pool whose prime 7 divides n! for n >= 7,
    # and a Legendre symbol modulo 15, must still be refused
    code = (
        "from brocard.factorial_engine import PrimePool\n"
        "from brocard.exact_arith import legendre\n"
        "for check in (lambda: PrimePool(max_n=10, primes=(7, 11)), lambda: legendre(2, 15)):\n"
        "    try:\n"
        "        check()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines() == ["pool must be odd, increasing, above max_n",
                                "modulus is not an odd prime"]


# ---------------------------------------------------------------------------
# residue stream


def test_seed_state_packs_n_factorial():
    # one residue, n! mod the pool product: 1 at n = 0 and 1, and at the
    # edges of the 32-factor blocks and at max_n
    for size in (1, 3, 48):
        pool = build_prime_pool(40, size)
        modulus = math.prod(pool.primes)
        for n in (0, 1, 31, 32, 33, 40):
            state = seed_state(pool, n)
            assert state.n == n
            assert state.residue == math.factorial(n) % modulus


def test_residue_stream_consistency_to_2000():
    # oracle: exact factorial reduced independently at every step of the
    # scan kernel, which caught its residue up behind a tabled front
    pool = build_prime_pool(2000, 8)
    tables = [nonresidue_bits(p) for p in pool.primes[:4]]
    modulus = math.prod(pool.primes)
    residue = seed_state(pool, 0).residue
    for n in range(1, 2001):
        _, residue, _ = scan_piece(pool, tables, n - 1, residue, n)
        assert residue == math.factorial(n) % modulus
        # pool primes never divide n!
        assert all(residue % p for p in pool.primes)


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from([1, 2, 3, 8, 48]), max_n=st.integers(0, 3000), data=st.data())
def test_seed_state_matches_exact_and_streamed(size, max_n, data):
    # seeding from n alone agrees with n! mod p and with the kernel that
    # streamed from 0 to n, at n = 0, 1, the edges of the 32-factor blocks
    # and just below max_n
    pool = build_prime_pool(max_n, size)
    edges = [0, 1, 31, 32, 33, 34, 63, 64, 65, 66, max_n - 1, max_n]
    points = [n for n in edges if 0 <= n <= max_n] + [data.draw(st.integers(0, max_n))]
    for n in points:
        seeded = seed_state(pool, n)
        assert seeded.n == n
        assert seeded.residue == math.factorial(n) % math.prod(pool.primes)
        _, residue, _ = scan_piece(pool, [], 0, seed_state(pool, 0).residue, n)
        assert residue == seeded.residue


def test_seed_state_refuses_bad_positions():
    pool = build_prime_pool(50, 3)
    with pytest.raises(CeilingError):
        seed_state(pool, 51)
    with pytest.raises(ValueError):
        seed_state(pool, -1)


@pytest.mark.parametrize("size", [1, 2, 48])
@pytest.mark.parametrize("max_n", [3000, 2999, 1000])
def test_seed_state_from_either_side(monkeypatch, size, max_n):
    # n! mod the pool product whichever side seed_state counts from: up
    # from 1 at n = 0, 1 and just below half the last pool prime, down
    # from it by Wilson's theorem just above half and at max_n. At
    # --max-n 3000 the first pool prime is 3001, so max_n = p - 1 and the
    # down product is empty for it; the side taken multiplies the fewer
    # factors
    pool = build_prime_pool(max_n, size)
    modulus = math.prod(pool.primes)
    top = pool.primes[-1]
    half = top // 2
    factors = []
    times_range = factorial_engine._times_range

    def counted(packed, a, b, m):
        factors.append(max(0, b - a))
        return times_range(packed, a, b, m)

    monkeypatch.setattr(factorial_engine, "_times_range", counted)
    for n in sorted({0, 1, half - 1, half, half + 1, max_n - 1, max_n}):
        factors.clear()
        state = seed_state(pool, n)
        assert state == (n, math.factorial(n) % modulus)
        up = n <= top - n
        assert sum(factors) == (max(0, n - 1) if up else top - 1 - n)
        assert len(factors) == (1 if up else size)


# ---------------------------------------------------------------------------
# exact factorials


def test_factorial_exact_examples():
    assert factorial_exact(0) == 1
    assert factorial_exact(1) == 1
    assert factorial_exact(7) == 5040
    assert factorial_exact(10) == 3628800


def test_factorial_exact_against_sequential_product():
    product = 1
    for n in range(1, 5001):
        product *= n
        if n <= 20 or n % 250 == 0:
            assert factorial_exact(n) == product
    assert factorial_exact(5000) == product


def test_factorial_exact_ceiling(monkeypatch):
    # the ceiling is read at each call
    monkeypatch.setattr(factorial_engine, "EXACT_FACTORIAL_CEILING", 100)
    with pytest.raises(CeilingError):
        factorial_exact(101)
    assert factorial_exact(100) == math.factorial(100)
    with pytest.raises(ValueError):
        factorial_exact(-1)


# ---------------------------------------------------------------------------
# is_factorial


def test_is_factorial_examples():
    assert is_factorial(5040) == 7
    assert is_factorial(100) is None
    assert is_factorial(1) == 0  # 0! = 1! = 1; smaller preimage wins
    assert is_factorial(2) == 2
    assert is_factorial(6) == 3
    assert is_factorial(0) is None
    assert is_factorial(-24) is None


def test_is_factorial_roundtrip():
    for n in range(2, 1001):
        assert is_factorial(math.factorial(n)) == n


def test_is_factorial_near_misses():
    for n in (3, 5, 8, 12, 40):
        f = math.factorial(n)
        assert is_factorial(f - 1) is None
        assert is_factorial(f + 1) is None
    assert is_factorial(5039) is None
    assert is_factorial(5041) is None
