"""A polynomial reformulation of the factorial-square condition.

The pair of integer polynomials

    r1(x, y) = y**4 + 4 y**3 + 2 x y**2 + 4 y**2 + 4 x y - 3 x**2
    r2(x, y) = y**3 + 3 y**2 + 2 y - x y - x

vanishes simultaneously exactly on the family x = y (y + 2). Restricting
x to factorial values therefore recovers the known solutions: x = n!,
y = m - 1 with m**2 = n! + 1 forces n! = (m - 1)(m + 1).
"""

from __future__ import annotations

from typing import NamedTuple

from .exact_arith import isqrt
from .factorial_engine import is_factorial


class LatticePoint(NamedTuple):
    x: int
    y: int


def eval_system(p: LatticePoint) -> tuple[int, int]:
    """(r1, r2) at the point, exactly."""
    x, y = p.x, p.y
    r1 = y**4 + 4 * y**3 + 2 * x * y**2 + 4 * y**2 + 4 * x * y - 3 * x**2
    r2 = y**3 + 3 * y**2 + 2 * y - x * y - x
    return r1, r2


def roots_in_x(y: int) -> list[int]:
    """Integer roots of r1(x, y) = 0 in x, for fixed y.

    As a quadratic in x the discriminant is 16 y**2 (y + 2)**2, always a
    perfect square; the roots are y(y + 2) and -y(y + 2)/3, the latter
    integral only when divisible by 3. Family root first.
    """
    disc = 16 * y * y * (y + 2) * (y + 2)
    s = isqrt(disc)
    assert s * s == disc
    family = y * (y + 2)
    roots = [family]
    q, rem = divmod(-family, 3)
    if rem == 0 and q != family:
        roots.append(q)
    return roots


def solve_window(y_min: int, y_max: int, factorials_only: bool = False) -> list[LatticePoint]:
    """All integer points of the system with y in [y_min, y_max].

    Candidates come from roots_in_x and are confirmed against both
    polynomials, so the result is complete for the window. With
    factorials_only, keep just the points whose x is a factorial >= 1.
    """
    if y_min > y_max:
        raise ValueError("empty window")
    points = []
    for y in range(y_min, y_max + 1):
        for x in roots_in_x(y):
            if eval_system(LatticePoint(x, y)) != (0, 0):
                continue
            if factorials_only and (x < 1 or is_factorial(x) is None):
                continue
            points.append(LatticePoint(x, y))
    return points


def ferrari_identity_check(y: int, x: int) -> bool:
    """Resolvent factorization check at a single point.

    With u = y**2 + 2y, the identity
        (u + x)**2 - (2x)**2 == (u + 3x)(u - x) == r1(x, y)
    holds for all integers; this evaluates all three forms and compares.
    """
    u = y * y + 2 * y
    lhs = (u + x) ** 2 - (2 * x) ** 2
    rhs = (u + 3 * x) * (u - x)
    r1, _ = eval_system(LatticePoint(x, y))
    return lhs == rhs == r1
