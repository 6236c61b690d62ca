"""Digit-level study of eps = sqrt(n!) - isqrt(n!).

For non-solutions eps is irrational, so it only ever exists here as a
truncated decimal at an explicitly requested precision. Solutions are
the n where eps has the exact form sqrt(k**2 + 2k) - k with the defect
maximal, which makes eps approach 1 from below; the nine-run probe
measures how close.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .conditions import legendre_certificate
from .exact_arith import BitBudgetError, ScaledDecimal, check_sqrt_operand, isqrt, sqrt_digits
from .factorial_engine import EXACT_FACTORIAL_CEILING, CeilingError, factorial_exact

# Precision, in digits, at which nine_run reports its run as a lower bound.
NINE_RUN_CAP = 1 << 21
_NINE_RUN_START = 64
# lgamma(n + 1) / ln 2 is log2(n!) to far better than a bit up to the
# exact ceiling; less this margin it is below n!'s bit length.
_LOG2_FACTORIAL_MARGIN = 16


class EpsilonProfile(NamedTuple):
    n: int
    digits_computed: int
    epsilon: ScaledDecimal
    nine_run: int
    nine_run_is_lower_bound: bool


def log_factorial(n: int, base: int) -> float:
    """log n! to the given base, from math.lgamma, for n >= 0."""
    return math.lgamma(n + 1) / math.log(base)


def admit_exact(n: int, d: int | None = None) -> None:
    """Raise what exact work on n! would raise, before any of it is done.

    CeilingError past the exact factorial ceiling. With d, BitBudgetError
    for an n that sqrt_digits(n!, d) is sure to refuse: the budget is
    checked on a lower bound of n!'s bit length, so an n at the edge
    passes here and still reaches the exact check in sqrt_digits. Building
    n! alone takes seconds from n ~ 10**6.
    """
    if n > EXACT_FACTORIAL_CEILING:
        raise CeilingError(f"n={n} exceeds exact factorial ceiling {EXACT_FACTORIAL_CEILING}")
    if d is not None and n >= 0:
        check_sqrt_operand(int(log_factorial(n, 2)) - _LOG2_FACTORIAL_MARGIN, d)


def epsilon_digits(n: int, d: int) -> ScaledDecimal:
    """First d fractional digits of sqrt(n!), truncated."""
    if d < 0:
        raise ValueError("d must be non-negative")
    admit_exact(n, d)
    s = sqrt_digits(factorial_exact(n), d)
    return ScaledDecimal(s.mantissa % 10**d, d)


def epsilon_of_k(k: int, d: int) -> ScaledDecimal:
    """First d fractional digits of f(k) = sqrt(k**2 + 2k) - k, truncated.

    f is strictly increasing in k and strictly below 1, so the mantissa
    always fits in d digits.
    """
    if k < 1:
        raise ValueError("k must be positive")
    s = sqrt_digits(k * k + 2 * k, d)
    m = s.mantissa - k * 10**d
    assert 0 <= m < 10**d
    return ScaledDecimal(m, d)


def k_ratio_digits(n: int, d: int) -> ScaledDecimal:
    """eps**2 / (2 (1 - eps)) truncated to d digits, computed exactly.

    Rationalizing over Z[sqrt(n!)] gives (A + B sqrt(n!)) / (2 D) with

        D = (k + 1)**2 - n!        (>= 1)
        A = (n! + k**2)(k + 1) - 2 k n!
        B = (n! + k**2) - 2 k (k + 1)  ==  defect - 2k  (<= 0)

    At a solution B vanishes and the ratio is the exact rational A / 2D
    (it equals k there). Otherwise B < 0 and the ratio is irrational:
    bracket sqrt(n!) between consecutive scaled integers and widen the
    guard precision until both ends of the bracket truncate to the same
    d-digit value, which must then be the exact truncation.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    g = d + 10
    try:
        admit_exact(n, g)
    except BitBudgetError:
        # a solution takes no root, so only a certified non-solution is
        # refused before n! is built
        if legendre_certificate(n) is not None:
            raise
    f = factorial_exact(n)
    k = isqrt(f)
    if k * k == f:
        raise ValueError(f"epsilon is zero at n={n}, ratio undefined")
    big_d = (k + 1) ** 2 - f
    big_a = (f + k * k) * (k + 1) - 2 * k * f
    big_b = (f + k * k) - 2 * k * (k + 1)
    den = 2 * big_d
    if big_b == 0:
        return ScaledDecimal(big_a * 10**d // den, d)
    while True:
        s = sqrt_digits(f, g).mantissa
        # big_b < 0 flips the bracket ends
        lo = (big_a * 10**g + big_b * (s + 1)) * 10**d // (den * 10**g)
        hi = (big_a * 10**g + big_b * s) * 10**d // (den * 10**g)
        if lo == hi:
            assert lo >= 0
            return ScaledDecimal(lo, d)
        g += 8


def nine_run(n: int) -> EpsilonProfile:
    """Length of the run of 9s opening the decimal expansion of eps.

    Doubles the working precision until a non-9 digit appears inside the
    truncated window. Truncation only ever exposes true digits, so a run
    shorter than the window is exact. Hitting NINE_RUN_CAP reports the
    cap as a lower bound.
    """
    cap = NINE_RUN_CAP
    d = min(_NINE_RUN_START, cap)
    admit_exact(n, d)
    f = factorial_exact(n)
    while True:
        s = sqrt_digits(f, d)
        # scaled-isqrt invariant, re-checked at every precision step
        scaled = f * 10 ** (2 * d)
        assert s.mantissa**2 <= scaled < (s.mantissa + 1) ** 2
        frac = s.fraction_digits()
        run = len(frac) - len(frac.lstrip("9"))
        eps = ScaledDecimal(s.mantissa % 10**d, d)
        if run < d:
            return EpsilonProfile(
                n=n, digits_computed=d, epsilon=eps,
                nine_run=run, nine_run_is_lower_bound=False,
            )
        if d >= cap:
            return EpsilonProfile(
                n=n, digits_computed=d, epsilon=eps,
                nine_run=cap, nine_run_is_lower_bound=True,
            )
        d = min(2 * d, cap)


def check_f_monotone(k_from: int, k_to: int, d: int) -> bool:
    """Verify f(k) strictly increases and stays below 1 on [k_from, k_to].

    Works on truncated mantissas, so d must leave the consecutive gaps
    f(k+1) - f(k), roughly 1 / (2 k**2), visible above truncation noise.
    The precondition d >= 2 len10(k_to) + 2 guarantees that.
    """
    if not 1 <= k_from < k_to:
        raise ValueError("need 1 <= k_from < k_to")
    if d < 2 * len(str(k_to)) + 2:
        raise ValueError("d too small to separate consecutive f values")
    bound = 10**d
    prev = epsilon_of_k(k_from, d).mantissa
    for k in range(k_from + 1, k_to + 1):
        cur = epsilon_of_k(k, d).mantissa
        if not prev < cur < bound:
            return False
        prev = cur
    return True
