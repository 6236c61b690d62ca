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

from .exact_arith import ScaledDecimal, check_sqrt_operand, isqrt, sqrt_digits
from .factorial_engine import EXACT_FACTORIAL_CEILING, CeilingError, factorial_exact

# Precision, in digits, at which nine_run reports its run as a lower bound.
NINE_RUN_CAP = 1 << 21
# Precision, in digits, of nine_run's first root.
NINE_RUN_START = 64
# Digits k_ratio_digits reads past the d it prints.
RATIO_GUARD = 10
# lgamma(n + 1) / ln 2 is log2(n!) to far better than a bit up to the
# exact ceiling; less this margin it is below n!'s bit length.
_LOG2_FACTORIAL_MARGIN = 16


class EpsilonProfile(NamedTuple):
    """The run of 9s opening eps, read at digits_computed digits. A run
    that fills them (only at NINE_RUN_CAP) is a lower bound."""

    n: int
    digits_computed: int
    epsilon: ScaledDecimal
    nine_run: int


class FactorialRoot:
    """n! and s = floor(sqrt(n!) * 10**g), its root at the highest precision
    g read so far. A read at d <= g digits truncates s, which is exact since
    truncations compose; a read past g takes one new root in place."""

    __slots__ = ("n", "f", "g", "s")

    def __init__(self, n: int, f: int | None = None) -> None:
        """f, when given, must be n! (a caller that already holds it)."""
        self.n = n
        self.f = factorial_exact(n) if f is None else f
        self.g = -1  # no root taken yet
        self.s = 0

    def scaled(self, d: int) -> int:
        """floor(sqrt(n!) * 10**d)."""
        if d < 0:
            raise ValueError("d must be non-negative")
        if d > self.g:
            check_sqrt_operand(self.f.bit_length(), d)
            x = self.f * 10 ** (2 * d)
            s = isqrt(x)
            # scaled-isqrt invariant, re-checked at every new root
            assert 0 <= x - s * s <= 2 * s
            self.g, self.s = d, s
        return self.s // 10 ** (self.g - d)


def log_factorial(n: int, base: int) -> float:
    """log n! to the given base, from math.lgamma, for n >= 0."""
    return math.lgamma(n + 1) / math.log(base)


def admit_exact(n: int, d: int | None = None) -> None:
    """Raise what exact work on n! would raise, before any of it is done.

    CeilingError past the exact factorial ceiling. With d, BitBudgetError
    for an n whose root at d digits is sure to be refused: the budget is
    checked on a lower bound of n!'s bit length, so an n at the edge
    passes here and still reaches the exact check of the root. Building
    n! alone takes seconds from n ~ 10**6.
    """
    if n > EXACT_FACTORIAL_CEILING:
        raise CeilingError(f"n={n} exceeds exact factorial ceiling {EXACT_FACTORIAL_CEILING}")
    if d is not None and n >= 0:
        check_sqrt_operand(int(log_factorial(n, 2)) - _LOG2_FACTORIAL_MARGIN, d)


def epsilon_digits(root: FactorialRoot, d: int) -> ScaledDecimal:
    """First d fractional digits of sqrt(n!), truncated."""
    return ScaledDecimal(root.scaled(d) % 10**d, d)


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


def k_ratio_digits(root: FactorialRoot, d: int) -> ScaledDecimal:
    """r(eps) = eps**2 / (2 (1 - eps)) truncated to d digits, computed exactly.

    With k = isqrt(n!) and defect n! - k**2: at a solution (defect 2k)
    eps = sqrt(k**2 + 2k) - k and the ratio is k exactly; a defect of 0
    leaves eps = 0 and the ratio undefined (ValueError). Otherwise the
    ratio is irrational. r rises with eps on [0, 1), so the g-digit
    truncation e / 10**g <= eps < (e + 1) / 10**g brackets it between
    r(e / 10**g) and r((e + 1) / 10**g), two small rationals; g grows by
    8 until both ends truncate to the same d digits, which must then be
    the exact truncation. The first root is taken at d + RATIO_GUARD.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    g = d + RATIO_GUARD
    s = root.scaled(g)
    k = s // 10**g
    defect = root.f - k * k
    if defect == 0:
        raise ValueError(f"epsilon is zero at n={root.n}, ratio undefined")
    if defect == 2 * k:
        return ScaledDecimal(k * 10**d, d)
    while True:
        unit = 10**g
        e = s % unit
        # r(e / unit) = e**2 / (2 unit (unit - e)); r(1) is unbounded
        lo = e * e * 10**d // (2 * unit * (unit - e))
        if e + 1 < unit and lo == (e + 1) ** 2 * 10**d // (2 * unit * (unit - e - 1)):
            return ScaledDecimal(lo, d)
        g += 8
        s = root.scaled(g)


def nine_run(root: FactorialRoot) -> EpsilonProfile:
    """Length of the run of 9s opening the decimal expansion of eps.

    Doubles the working precision from NINE_RUN_START until a non-9
    digit appears inside the truncated window. Truncation only ever
    exposes true digits, so a run shorter than the window is exact.
    Hitting NINE_RUN_CAP reports the cap as a lower bound.
    """
    cap = NINE_RUN_CAP
    d = min(NINE_RUN_START, cap)
    while True:
        eps = epsilon_digits(root, d)
        frac = eps.fraction_digits()
        run = len(frac) - len(frac.lstrip("9"))
        # d never passes the cap, so a run that fills it is the cap
        if run < d or d == cap:
            return EpsilonProfile(n=root.n, digits_computed=d, epsilon=eps, nine_run=run)
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
