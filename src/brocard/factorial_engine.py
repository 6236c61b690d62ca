"""Factorial values, exact and as streams of residues modulo a prime pool.

The scan never materializes n! per step. It carries n! mod the product
of the pool primes and multiplies by n to advance, which keeps the
per-step cost flat, and starts it at any n from whichever end of the
pool is nearer (`seed_state`). Exact factorials are computed on demand,
for the CLI's exact commands and for the rare scan survivor that no
Legendre certificate settles (`conditions.verify`).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from .exact_arith import is_prime_64

# Consecutive factors `seed_state` multiplies together
# (one `math.perm`) before each reduction by the pool product. Medians of
# five seeds of n = 5 * 10**5 with the 48-prime pool, three runs (2-core
# x86-64 VM, CPython 3.11): 0.092-0.101 s with 16 factors, 0.085-0.090 s
# with 32, 0.082-0.086 s with 64, 0.085-0.109 s with 256.
_SEED_BLOCK = 32

# Largest n whose factorial the engine will materialize.
EXACT_FACTORIAL_CEILING = 10**7

# Scan ceiling; pool primes must exceed max_n yet stay comfortably 64-bit.
MAX_SUPPORTED_N = (1 << 32) - 1


class CeilingError(ValueError):
    """A requested value lies beyond a structural limit."""


class PrimePool:
    """Odd primes strictly above max_n, strictly increasing.

    Every pool prime is coprime to every n! with n <= max_n, so residues
    in a factorial stream over this pool are never zero.
    """

    __slots__ = ("max_n", "primes")

    def __init__(self, max_n: int, primes: tuple[int, ...]) -> None:
        if not primes:
            raise ValueError("pool must be non-empty")
        prev = max(max_n, 2)
        for p in primes:
            if not (p > prev and p % 2 == 1):
                raise ValueError("pool must be odd, increasing, above max_n")
            prev = p
        self.max_n = max_n
        self.primes = primes


class FactorialState(NamedTuple):
    """Position n of a factorial residue stream over some pool:
    residue == n! mod the product of pool.primes."""

    n: int
    residue: int


class StreamError(Exception):
    """A residue stream disagrees with an independent derivation of the
    same position: a scan piece's front with its packed stream, or a
    one-shard scan's last residue with `seed_state` where it stops."""


def primes_above(n: int) -> Iterator[int]:
    """The odd primes strictly greater than n, in increasing order."""
    c = max(n + 1, 3) | 1
    while True:
        if is_prime_64(c):
            yield c
        c += 2


def build_prime_pool(max_n: int, count: int) -> PrimePool:
    """The count smallest odd primes strictly greater than max_n."""
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    if max_n > MAX_SUPPORTED_N:
        raise CeilingError(f"max_n {max_n} exceeds supported ceiling {MAX_SUPPORTED_N}")
    if count < 1:
        raise ValueError("count must be positive")
    return PrimePool(max_n=max_n, primes=tuple(itertools.islice(primes_above(max_n), count)))


def seed_state(pool: PrimePool, n: int) -> FactorialState:
    """The stream at position n, computed from whichever end of the pool
    takes fewer factors.

    Up from 1 it multiplies 2 .. n. Down from the top it multiplies u =
    (n + 1)(n + 2)...(p - 1) mod each pool prime p in one running product
    up to the last prime, and Wilson's theorem, (p - 1)! == -1, gives n!
    == -1 / u (mod p); the residues are joined by the Chinese remainder
    theorem. Blocks of consecutive factors are multiplied exactly and each
    block product is reduced mod the product of the pool, so either way
    costs about min(n, p - n) / 32 reductions of one big residue, for the
    last pool prime p.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > pool.max_n:
        raise CeilingError(f"n={n} is beyond pool max_n={pool.max_n}")
    modulus = math.prod(pool.primes)
    if n <= pool.primes[-1] - n:
        return FactorialState(n=n, residue=_times_range(1, 2, n + 1, modulus))
    residue, running, a = 0, 1, n + 1
    for p in pool.primes:
        running = _times_range(running, a, p, modulus)
        m = modulus // p
        # the term that is n! == -1 / u mod p and 0 mod the other primes
        residue += m * (-pow(running * m, -1, p) % p)
        a = p
    return FactorialState(n=n, residue=residue % modulus)


def _times_range(packed: int, a: int, b: int, modulus: int) -> int:
    """packed * a * (a + 1) * ... * (b - 1) mod modulus, reduced once per
    block of _SEED_BLOCK factors."""
    for lo in range(a, b, _SEED_BLOCK):
        hi = min(lo + _SEED_BLOCK, b)
        packed = packed * math.perm(hi - 1, hi - lo) % modulus
    return packed


def factorial_exact(n: int) -> int:
    """n! as an exact integer. Refuses n above EXACT_FACTORIAL_CEILING."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > EXACT_FACTORIAL_CEILING:
        raise CeilingError(f"n={n} exceeds exact factorial ceiling {EXACT_FACTORIAL_CEILING}")
    return math.factorial(n)


def is_factorial(x: int) -> int | None:
    """The n with n! == x, or None.

    Division chain: strip 2, then 3, and so on until the quotient hits 1
    or a division fails. x == 1 reports 0 (the smaller of the two valid
    preimages 0 and 1).
    """
    if x < 1:
        return None
    if x == 1:
        return 0
    d = 2
    while x > 1:
        if x % d:
            return None
        x //= d
        d += 1
    return d - 1
