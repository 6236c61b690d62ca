"""Solution predicates for n! + 1 = m**2, in exact integer form.

With k = isqrt(n!), the only candidate is m = k + 1, and n is a solution
exactly when n! - k**2 == 2k, equivalently n! == k(k + 2). No square
roots of non-squares are ever materialized; every predicate is an
integer identity.

Most n need none of that. If n! + 1 is a quadratic nonresidue modulo some
odd prime q > n, it is not a square; n! mod q comes from Wilson's theorem
without building n!, and the rejecting prime q is a certificate anyone
can re-check with one pow.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .exact_arith import isqrt, legendre
from .factorial_engine import factorial_exact, primes_above

# Primes above n that the scan tries for a certificate before it falls
# back to exact arithmetic. Each rejects a non-solution with probability
# about 1/2, so a non-solution outlasts them with probability 2**-64.
CERTIFICATE_PRIMES = 64


class NotASolutionError(ValueError):
    """Raised when a decomposition only defined at solutions is requested elsewhere."""


class VerifyReport(NamedTuple):
    """Verdict for one n, with k = isqrt(n!) and defect = n! - k**2.

    n is a solution exactly when defect == 2k, and then m = k + 1 and k
    is even. A certificate verdict carries rejecting_prime and leaves k
    and defect None.
    """

    n: int
    k: int | None
    defect: int | None
    is_solution: bool
    rejecting_prime: int | None = None


class FactorStructure(NamedTuple):
    """n! = 2a * 2**(e-1) * b with a, b odd, e the 2-adic valuation of n!.

    Of the factors k and k + 2 of a solution's n!, 2a is the one congruent
    to 2 mod 4 and b * 2**(e-1) the other, carrying all remaining powers
    of two.
    """

    n: int
    a: int
    b: int
    e: int


def factorial_mod(n: int, q: int) -> int:
    """n! mod a prime q > n, without n!.

    Wilson's theorem, (q - 1)! = -1 (mod q), leaves
    n! = -((n + 1)(n + 2) ... (q - 1))**-1 (mod q): q - 1 - n products.
    """
    if not 0 <= n < q:
        raise ValueError("need 0 <= n < q")
    return -pow(math.prod(range(n + 1, q)) % q, -1, q) % q


def residue_symbol(n: int, q: int) -> int:
    """The Legendre symbol (n! + 1 | q) for an odd prime q > n."""
    return legendre((factorial_mod(n, q) + 1) % q, q)


def legendre_certificate(n: int) -> int | None:
    """The first of the CERTIFICATE_PRIMES smallest odd primes q > n with
    (n! + 1 | q) = -1.

    None when none of them rejects: always for a solution, and with
    probability about 2**-CERTIFICATE_PRIMES otherwise. Symbol 0 (q
    divides n! + 1) does not reject.
    """
    for q in itertools.islice(primes_above(n), CERTIFICATE_PRIMES):
        if residue_symbol(n, q) == -1:
            return q
    return None


def is_certificate(n: int, q: int) -> bool:
    """Whether q is the certificate the search emits for n: the first odd
    prime q > n with (n! + 1 | q) = -1 among the CERTIFICATE_PRIMES
    smallest above n (`legendre_certificate`), so it is unique. A
    composite q, q <= n, a prime at which n! + 1 is a residue or zero, a
    later rejecting prime and any q for a solution are all refused. A
    forged q costs no more symbols than the true one, and at most
    CERTIFICATE_PRIMES for a solution.
    """
    return n >= 0 and legendre_certificate(n) == q


def verify(n: int, *, certify: bool = False) -> VerifyReport:
    """Verdict for a single n, exact unless certify asks for a certificate.

    With certify the CERTIFICATE_PRIMES smallest odd primes above n are
    tried first; the first that rejects settles n as a non-solution and
    nothing exact is computed. Without one (solutions, and about
    2**-CERTIFICATE_PRIMES of non-solutions) the exact path runs, which
    raises CeilingError above the exact factorial ceiling.
    """
    if certify:
        q = legendre_certificate(n)
        if q is not None:
            return VerifyReport(n=n, k=None, defect=None, is_solution=False,
                                rejecting_prime=q)
    f = factorial_exact(n)
    k = isqrt(f)
    d = f - k * k
    sol = d == 2 * k
    assert sol == (k * (k + 2) == f)
    if sol:
        assert (k + 1) ** 2 == f + 1
        assert k % 2 == 0
    return VerifyReport(n=n, k=k, defect=d, is_solution=sol)


def factor_structure(n: int) -> FactorStructure:
    """Decompose n! = (m-1)(m+1) at a solution into 2a and 2**(e-1) b.

    Of k and k + 2 exactly one is 2 mod 4; that factor is 2a with a odd,
    and the other absorbs the remaining e - 1 factors of two.
    """
    report = verify(n)
    if not report.is_solution:
        raise NotASolutionError(f"n={n} is not a solution, factor structure undefined")
    f = factorial_exact(n)
    k = report.k
    e = (f & -f).bit_length() - 1
    lo, hi = k, k + 2
    if lo % 4 == 2:
        half_even, half_pow = lo, hi
    else:
        half_even, half_pow = hi, lo
    assert half_even % 4 == 2
    a = half_even // 2
    assert half_pow % (1 << (e - 1)) == 0
    b = half_pow >> (e - 1)
    assert a % 2 == 1 and b % 2 == 1
    assert abs(2 * a - half_pow) == 2
    assert 2 * a * half_pow == f
    return FactorStructure(n=n, a=a, b=b, e=e)
