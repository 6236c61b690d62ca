"""Exact integer arithmetic primitives.

Everything here is exact: no floats, no rounding. Fractional values are
carried as truncated decimal fixed-point numbers (ScaledDecimal), so a
digit once printed never changes when more precision is requested.
"""

from __future__ import annotations

import math
# the exact layer's integer square root, imported from here by its users
from math import isqrt

# Largest operand, in bits, that sqrt_digits will build.
BIT_BUDGET = 1 << 26

# log2(10), rounded up a little; only used to estimate operand sizes.
_LOG2_10 = 3.3219280948873626

# Deterministic Miller-Rabin witness set for moduli below 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Below _MR_SMALL_LIMIT the witnesses 2, 7 and 61 suffice (Jaeschke 1993):
# the limit itself is the least odd composite all three pass. It covers
# every pool prime (max_n < 2**32) and every certificate prime of a scan.
_MR_SMALL_WITNESSES = (2, 7, 61)
_MR_SMALL_LIMIT = 4_759_123_141
# Trial divisors: the primes up to 61. They include every witness of
# either set, so no witness is 0 mod an input that reaches the rounds.
_TRIAL_DIVISORS = _MR_WITNESSES + (41, 43, 47, 53, 59, 61)


class BitBudgetError(Exception):
    """Scaled operand would exceed the bit budget."""


def _dec_padded(v: int, width: int) -> str:
    """Decimal digits of v, zero-padded to width. Requires 0 <= v < 10**width.

    Splits recursively at a power of ten, so widths far beyond the
    interpreter's int-to-str conversion guard still render.
    """
    if width <= 3800:
        return str(v).zfill(width)
    half = width >> 1
    hi, lo = divmod(v, 10**half)
    return _dec_padded(hi, width - half) + _dec_padded(lo, half)


def decimal_str(v: int) -> str:
    """str(v) for any non-negative int, regardless of conversion limits."""
    if v < 0:
        raise ValueError("v must be non-negative")
    width = v.bit_length() * 30103 // 100000 + 2
    return _dec_padded(v, width).lstrip("0") or "0"


class ScaledDecimal:
    """mantissa * 10**-frac_digits, truncated, never rounded.

    Field equality is canonical for a fixed precision; values produced at
    different precisions compare via their digit strings.
    """

    __slots__ = ("mantissa", "frac_digits")

    def __init__(self, mantissa: int, frac_digits: int) -> None:
        if mantissa < 0:
            raise ValueError("mantissa must be non-negative")
        if frac_digits < 0:
            raise ValueError("frac_digits must be non-negative")
        self.mantissa = mantissa
        self.frac_digits = frac_digits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScaledDecimal):
            return NotImplemented
        return (self.mantissa, self.frac_digits) == (other.mantissa, other.frac_digits)

    def __hash__(self) -> int:
        return hash((self.mantissa, self.frac_digits))

    def __repr__(self) -> str:
        return f"ScaledDecimal(mantissa={self.mantissa!r}, frac_digits={self.frac_digits!r})"

    @property
    def integer_part(self) -> int:
        return self.mantissa // 10**self.frac_digits

    def fraction_digits(self) -> str:
        """The fractional digit string, zero-padded to frac_digits."""
        if self.frac_digits == 0:
            return ""
        return _dec_padded(self.mantissa % 10**self.frac_digits, self.frac_digits)

    def __str__(self) -> str:
        if self.frac_digits == 0:
            return decimal_str(self.mantissa)
        return f"{decimal_str(self.integer_part)}.{self.fraction_digits()}"


def check_sqrt_operand(bits: int, d: int) -> None:
    """Raise BitBudgetError if the root of a bits-bit x to d digits would
    build an operand past BIT_BUDGET."""
    est_bits = bits + int(2 * d * _LOG2_10) + 2
    if est_bits > BIT_BUDGET:
        raise BitBudgetError(
            f"root of a {bits}-bit number at {d} digits needs an operand of about "
            f"{est_bits} bits, budget is {BIT_BUDGET}"
        )


def sqrt_digits(x: int, d: int) -> ScaledDecimal:
    """First d fractional digits of sqrt(x), truncated.

    Computes isqrt(x * 10**(2d)), which is exactly floor(sqrt(x) * 10**d).
    Raises BitBudgetError before materializing an operand whose size would
    exceed BIT_BUDGET (2**26 bits).
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    if d < 0:
        raise ValueError("d must be non-negative")
    check_sqrt_operand(x.bit_length(), d)
    mantissa = math.isqrt(x * 10 ** (2 * d))
    return ScaledDecimal(mantissa, d)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a | p) for odd prime p, via Euler's criterion.

    Returns 0 if p divides a, +1 for quadratic residues, -1 otherwise.
    Caller guarantees p is an odd prime.
    """
    if not 0 <= a < p:
        raise ValueError("a must be reduced mod p")
    s = pow(a, (p - 1) >> 1, p)
    if s == 0:
        return 0
    if s == 1:
        return 1
    if s != p - 1:
        raise ValueError("modulus is not an odd prime")
    return -1


def is_prime_64(p: int) -> bool:
    """Deterministic primality for 0 <= p < 2**64.

    Trial division by the primes up to 61, then Miller-Rabin: with the
    witnesses 2, 7 and 61 below 4759123141, else with the first twelve
    prime witnesses, a set known to be exact for all 64-bit inputs.
    """
    if p >= 1 << 64:
        raise ValueError("input exceeds 64 bits")
    if p < 2:
        return False
    for q in _TRIAL_DIVISORS:
        if p % q == 0:
            return p == q
    return _strong_probable_prime(
        p, _MR_SMALL_WITNESSES if p < _MR_SMALL_LIMIT else _MR_WITNESSES)


def _strong_probable_prime(p: int, witnesses: tuple[int, ...]) -> bool:
    """Whether the odd p > 2 passes a Miller-Rabin round for each witness,
    none of which may be 0 mod p."""
    d = p - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in witnesses:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True
