from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brocard import exact_arith
from brocard.exact_arith import (
    _MR_SMALL_LIMIT,
    _MR_SMALL_WITNESSES,
    _MR_WITNESSES,
    BitBudgetError,
    ScaledDecimal,
    _strong_probable_prime,
    decimal_str,
    is_prime_64,
    isqrt,
    legendre,
    sqrt_digits,
)

# ---------------------------------------------------------------------------
# isqrt


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(24) == 4
    assert isqrt(5040) == 70
    assert isqrt(10**18) == 10**9


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


def test_isqrt_exhaustive_small():
    # oracle: walk squares alongside x, no isqrt involved
    s = 0
    for x in range(10**6 + 1):
        if (s + 1) * (s + 1) <= x:
            s += 1
        assert isqrt(x) == s


@given(st.integers(min_value=0, max_value=10**200))
def test_isqrt_bracket(x):
    s = isqrt(x)
    assert s * s <= x < (s + 1) * (s + 1)


# ---------------------------------------------------------------------------
# ScaledDecimal / sqrt_digits


def test_sqrt_digits_examples():
    assert sqrt_digits(2, 9) == ScaledDecimal(1414213562, 9)
    assert str(sqrt_digits(2, 9)) == "1.414213562"
    assert str(sqrt_digits(4, 5)) == "2.00000"
    # sqrt(5040) = 70.99295739719..., so truncation ends 3971
    assert str(sqrt_digits(5040, 10)) == "70.9929573971"
    assert str(sqrt_digits(0, 3)) == "0.000"
    assert str(sqrt_digits(24, 0)) == "4"


def test_sqrt_digits_truncates_never_rounds():
    # sqrt(3) = 1.7320508075688772...; a rounding implementation would end 76
    assert str(sqrt_digits(3, 10)) == "1.7320508075"


def test_scaled_decimal_validation():
    with pytest.raises(ValueError):
        ScaledDecimal(-1, 2)
    with pytest.raises(ValueError):
        ScaledDecimal(10, -1)


def test_scaled_decimal_accessors():
    v = ScaledDecimal(709929573972, 10)
    assert v.integer_part == 70
    assert v.fraction_digits() == "9929573972"


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=0, max_value=40))
def test_sqrt_digits_mantissa_bracket(x, d):
    m = sqrt_digits(x, d).mantissa
    scaled = x * 10 ** (2 * d)
    assert m * m <= scaled < (m + 1) * (m + 1)


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=0, max_value=40))
def test_sqrt_digits_prefix_consistency(x, d):
    # one more digit never rewrites the digits already printed
    a = sqrt_digits(x, d)
    b = sqrt_digits(x, d + 1)
    assert b.mantissa // 10 == a.mantissa


def test_sqrt_digits_bit_budget(monkeypatch):
    with pytest.raises(BitBudgetError):
        sqrt_digits(12345, 10**8)
    # the budget is read at each call
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", 1000)
    with pytest.raises(BitBudgetError):
        sqrt_digits(12345, 10**6)
    assert sqrt_digits(12345, 100).frac_digits == 100


def test_decimal_str_matches_str_when_small():
    for v in (0, 1, 9, 10, 12345, 10**100, 10**3000 - 1):
        assert decimal_str(v) == str(v)


def test_decimal_str_beyond_conversion_guard():
    # 10**6000 + 7 has more digits than the default int-to-str guard allows
    v = 10**6000 + 7
    s = decimal_str(v)
    assert len(s) == 6001
    assert s[0] == "1" and s.endswith("0" * 3999 + "7")
    assert set(s[1:-4]) <= {"0"}


# ---------------------------------------------------------------------------
# legendre


def test_legendre_examples():
    assert legendre(3, 11) == 1  # 5*5 = 25 = 2*11 + 3
    assert legendre(6, 11) == -1
    assert legendre(0, 11) == 0
    assert legendre(1, 7) == 1


def test_legendre_exhaustive_small_primes():
    # oracle: enumerate squares mod p
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expect


def test_legendre_refuses_a_composite_modulus():
    # 2**7 == 8 (mod 15): neither 1 nor -1, so 15 is not an odd prime
    with pytest.raises(ValueError, match="not an odd prime"):
        legendre(2, 15)


@given(st.sampled_from([101, 103, 997, 10007]), st.data())
def test_legendre_multiplicative(p, data):
    a = data.draw(st.integers(min_value=1, max_value=p - 1))
    b = data.draw(st.integers(min_value=1, max_value=p - 1))
    assert legendre(a * b % p, p) == legendre(a, p) * legendre(b, p)


# ---------------------------------------------------------------------------
# is_prime_64


def test_is_prime_64_examples():
    assert is_prime_64(2)
    assert is_prime_64(1000003)
    assert not is_prime_64(1000001)  # 101 * 9901
    assert not is_prime_64(0)
    assert not is_prime_64(1)


def test_is_prime_64_sieve_agreement():
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(limit + 1):
        assert is_prime_64(n) == bool(sieve[n]), n


def test_is_prime_64_strong_pseudoprime_traps():
    # composites that fool small witness subsets
    assert not is_prime_64(3215031751)  # spsp to bases 2,3,5,7
    assert not is_prime_64(3825123056546413051)  # spsp to bases 2..23
    assert is_prime_64(2**61 - 1)
    assert is_prime_64(18446744073709551557)  # largest prime below 2^64
    assert not is_prime_64(2**64 - 1)


def test_is_prime_64_at_the_witness_cut():
    # the witnesses themselves are prime, though each is 0 mod itself
    for p in _MR_SMALL_WITNESSES:
        assert is_prime_64(p)
    # the least odd composite that passes all three witnesses, where the
    # twelve take over
    assert _MR_SMALL_LIMIT == 4759123141 == 48781 * 97561
    assert _strong_probable_prime(_MR_SMALL_LIMIT, _MR_SMALL_WITNESSES)
    assert not is_prime_64(_MR_SMALL_LIMIT)


def test_is_prime_64_small_witnesses_agree_with_twelve_below_the_cut():
    # the twelve witnesses are exact on every odd input above 37
    rng = random.Random(4759)
    sample = [rng.randrange(1 << 32, _MR_SMALL_LIMIT) | 1 for _ in range(20_000)]
    window = range(_MR_SMALL_LIMIT - 20_000, _MR_SMALL_LIMIT, 2)
    primes = 0
    for p in [*sample, *window]:
        expect = _strong_probable_prime(p, _MR_WITNESSES)
        assert is_prime_64(p) == expect, p
        primes += expect
    assert primes > 1000  # about 2 / ln(4.5e9) of odd inputs


def test_is_prime_64_rejects_beyond_64_bits():
    with pytest.raises(ValueError):
        is_prime_64(1 << 64)
