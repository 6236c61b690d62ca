"""Quadratic-residue rejection filter.

If n! + 1 is a perfect square then n! + 1 is a quadratic residue (or
zero) modulo every prime. A pool prime p with Legendre symbol
(n! + 1 | p) == -1 therefore disproves n without computing n! itself.
The filter is sound by construction: it can only reject non-solutions.
Each pool prime passes a random non-solution with probability about 1/2,
so a 48-prime pool leaks a false survivor roughly once in 2**48 trials.

`ResidueFilter` is the kernel the scan runs. `passes` evaluates one
stream position symbol by symbol and is kept as the reference the tests
hold the kernel to.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .factorial_engine import FactorialState, PrimePool

# Pool primes streamed one residue each and tested on every n (the scan
# loop is written out for exactly this many). Past the third, fewer than
# one n in eight still needs a symbol, so the rest of the pool is packed
# into one residue and caught up only for those n.
_FRONT_WIDTH = 3

# Table or pow, measured on a 2-core x86-64 VM under CPython 3.11 with p
# near 2**20: a table lookup in place of Euler's pow saves about 1100 ns
# per symbol, and a table costs about 90 ns per entry to build.
_POW_SAVING_NS = 1100
_BUILD_NS_PER_ENTRY = 90
# Building a table passes through a p-byte array; above this no table is
# built, whatever the segment length.
_TABLE_MAX_PRIME = 1 << 24


@dataclass(frozen=True)
class FilterOutcome:
    passed: bool
    rejecting_prime: int | None
    symbols_evaluated: int


def passes(state: FactorialState, pool: PrimePool) -> FilterOutcome:
    """Evaluate (n! + 1 | p) over the pool in order, stopping at the first -1.

    The rejecting prime, when any prime rejects, is the earliest in pool
    order, so the outcome is independent of evaluation strategy.
    """
    assert len(state.residues) == len(pool.primes)
    evaluated = 0
    for r, p in zip(state.residues, pool.primes):
        evaluated += 1
        a = r + 1
        if a == p:
            # symbol is 0; a square can be divisible by p
            continue
        if pow(a, (p - 1) >> 1, p) == p - 1:
            return FilterOutcome(passed=False, rejecting_prime=p, symbols_evaluated=evaluated)
    return FilterOutcome(passed=True, rejecting_prime=None, symbols_evaluated=evaluated)


def table_pays(p: int, rank: int, span: int) -> bool:
    """Whether a nonresidue table for the front prime p at pool rank `rank`
    saves more over `span` values of n than it costs to build.

    The prime at rank i is consulted for about 2**-i of all n, since each
    earlier prime rejects about half of what reaches it.
    """
    return p < _TABLE_MAX_PRIME and (span * _POW_SAVING_NS >> rank) > p * _BUILD_NS_PER_ENTRY


def nonresidue_bits(p: int) -> bytes:
    """Bit r (little-endian within each byte) is set iff r + 1 is a nonzero
    quadratic nonresidue mod p, for 0 <= r < p.

    Indexed by the residue r = n! mod p itself, so a lookup needs no add.
    Bit p - 1 (r + 1 == p, symbol 0) is clear.
    """
    marks = bytearray(b"\x01") * p
    marks[p - 1] = 0
    for x in range(1, ((p - 1) >> 1) + 1):
        marks[x * x % p - 1] = 0
    # marks holds one 0/1 flag per byte. Lane k (bytes k, k + 8, ...) read
    # as one little-endian integer and shifted by k moves each flag to bit
    # k of its own byte; the eight lanes never overlap.
    packed = 0
    for k in range(8):
        packed |= int.from_bytes(marks[k::8], "little") << k
    return packed.to_bytes((p + 7) >> 3, "little")


def _nonresidue_test(p: int, table: bytes | None) -> Callable[[int], int]:
    """Predicate on r = n! mod p: true iff (r + 1 | p) == -1."""
    if table is not None:
        return lambda r: table[r >> 3] >> (r & 7) & 1
    half = (p - 1) >> 1
    # r + 1 == p gives pow(...) == 0, never p - 1: the zero symbol passes
    return lambda r: pow(r + 1, half, p) == p - 1


def _never(r: int) -> int:
    return 0


class ResidueFilter:
    """The scan kernel: n! mod the pool, filtered at every n >= 2.

    Front: the first three pool primes each carry r = n! mod p,
    advanced as r = r * n % p and tested on every n, with a bit-packed
    nonresidue table where `table_pays` says the segment is long enough
    and Euler's pow otherwise. Tail: the remaining primes share one
    residue R = n! mod their product, multiplied up to n only for the n
    that pass the front, then tested prime by prime. Primes are tested in
    pool order, so the recorded rejecting prime is the first in pool
    order, as with `passes`.
    """

    def __init__(self, pool: PrimePool, state: FactorialState, stop: int) -> None:
        primes = pool.primes
        span = stop - state.n
        self._width = min(_FRONT_WIDTH, len(primes))
        front = primes[: self._width]
        tests = [
            _nonresidue_test(p, nonresidue_bits(p) if table_pays(p, i, span) else None)
            for i, p in enumerate(front)
        ]
        # A pool smaller than the front pads it with modulus-1 slots that
        # never reject, so the scan loop has one shape.
        pad = _FRONT_WIDTH - self._width
        self._moduli = list(front) + [1] * pad
        self._tests = tests + [_never] * pad
        self._tail_primes = primes[self._width:]
        self._tail = [(p, (p - 1) >> 1) for p in self._tail_primes]
        self._modulus = math.prod(self._tail_primes)
        self.seek(state)

    def seek(self, state: FactorialState) -> None:
        """Reposition the stream at `state` and restart the rejection
        counts, keeping the front's tests (and any tables they hold)."""
        assert len(state.residues) == self._width + len(self._tail)
        self.n = state.n
        self.rejections: Counter[int] = Counter()
        self._residues = list(state.residues[: self._width]) + [0] * (_FRONT_WIDTH - self._width)
        self._packed = _crt(state.residues[self._width:], self._tail_primes, self._modulus)
        self._packed_n = state.n

    def scan_to(self, hi: int, on_survivor: Callable[[int], None]) -> None:
        """Filter n = self.n + 1 .. hi, counting each rejection under its
        prime and calling on_survivor(n) in ascending n for the rest."""
        p0, p1, p2 = self._moduli
        t0, t1, t2 = self._tests
        r0, r1, r2 = self._residues
        c0 = c1 = c2 = 0
        tail, modulus = self._tail, self._modulus
        packed, packed_n = self._packed, self._packed_n
        rejections, prod = self.rejections, math.prod
        # 0! == 1! == 1: n = 1 changes no residue and is never tested
        for n in range(max(self.n + 1, 2), hi + 1):
            r0 = r0 * n % p0
            r1 = r1 * n % p1
            r2 = r2 * n % p2
            if t0(r0):
                c0 += 1
            elif t1(r1):
                c1 += 1
            elif t2(r2):
                c2 += 1
            else:
                packed = packed * prod(range(packed_n + 1, n + 1)) % modulus
                packed_n = n
                for p, half in tail:
                    if pow(packed % p + 1, half, p) == p - 1:
                        rejections[p] += 1
                        break
                else:
                    on_survivor(n)
        for p, c in zip((p0, p1, p2)[: self._width], (c0, c1, c2)):
            if c:
                rejections[p] += c
        self.n = max(self.n, hi)
        self._residues = [r0, r1, r2]
        self._packed, self._packed_n = packed, packed_n

    def state(self) -> FactorialState:
        """The stream position with one residue per pool prime, in pool order."""
        self._packed = self._packed * math.prod(range(self._packed_n + 1, self.n + 1)) \
            % self._modulus
        self._packed_n = self.n
        residues = self._residues[: self._width] + [self._packed % p for p, _ in self._tail]
        return FactorialState(n=self.n, residues=residues)


def _crt(residues: list[int], primes: tuple[int, ...], modulus: int) -> int:
    """The x mod `modulus` (the product of `primes`) with x = r mod p for each pair."""
    x = 0
    for r, p in zip(residues, primes):
        m = modulus // p
        x += r * m * pow(m, -1, p)
    return x % modulus
