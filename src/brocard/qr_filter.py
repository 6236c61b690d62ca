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
from typing import Callable, NamedTuple

from .factorial_engine import FactorialState, PrimePool

# Scan loop slots, each streaming one front prime and testing it by its
# nonresidue table (the loop is written out for exactly this many). The
# prime at rank i is consulted for about 2**-i of all n, so past a few
# ranks a table no longer pays for its build (`table_pays`). A fifth slot
# would cost a multiplication on every n to spare Euler's pow on one n in
# 32. Pool primes past the front are packed into one residue and caught
# up only for the n the front passes.
_FRONT_WIDTH = 4

# Table or pow, measured on a 2-core x86-64 VM under CPython 3.11 with p
# near 2**20: a table lookup in place of Euler's pow saves about 1100 ns
# per symbol, and a table costs about 55 ns per entry to build.
_POW_SAVING_NS = 1100
_BUILD_NS_PER_ENTRY = 55
# Building a table passes through a p-byte array; above this no table is
# built, whatever the segment length.
_TABLE_MAX_PRIME = 1 << 24

# The table of a padded front slot: its modulus is 1, so r is always 0,
# and bit 0 is clear, so the slot never rejects.
_NEVER = b"\x00"

# Residues at which `table_matches` checks a table by Euler's criterion.
_SPOT_CHECKS = 64


class FilterOutcome(NamedTuple):
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
    """Whether a nonresidue table for the prime p at pool rank `rank`
    saves more over `span` values of n than it costs to build.

    The prime at rank i is consulted for about 2**-i of all n, since each
    earlier prime rejects about half of what reaches it. A scan cut into
    shards builds each table once and shares it, so the rule holds for
    the whole span whatever the shard count.
    """
    return p < _TABLE_MAX_PRIME and (span * _POW_SAVING_NS >> rank) > p * _BUILD_NS_PER_ENTRY


def table_ranks(primes: tuple[int, ...], span: int) -> int:
    """How many leading pool ranks a scan of `span` n tests by table: those
    where `table_pays` holds, at most the front's width. Since the rule
    falls with rank, they are a prefix of the pool."""
    width = 0
    while width < min(_FRONT_WIDTH, len(primes)) and table_pays(primes[width], width, span):
        width += 1
    return width


def nonresidue_bits(p: int) -> bytes:
    """Bit r (little-endian within each byte) is set iff r + 1 is a nonzero
    quadratic nonresidue mod p, for 0 <= r < p.

    Indexed by the residue r = n! mod p itself, so a lookup needs no add.
    Bit p - 1 (r + 1 == p, symbol 0) is clear.
    """
    marks = bytearray(b"\x01") * p
    marks[p - 1] = 0
    # marks[x * x % p - 1] = 0 for x = 1 .. (p - 1) / 2. The index steps by
    # (x + 1)**2 - x**2 = 2x + 1, taken as 2x + 1 - p <= 0 and wrapped back
    # into range: small-int additions only, about a third faster than
    # squaring and reducing each x.
    r = 0
    for step in range(3 - p, 1, 2):
        marks[r] = 0
        r += step
        if r < 0:
            r += p
    # marks holds one 0/1 flag per byte. Lane k (bytes k, k + 8, ...) read
    # as one little-endian integer and shifted by k moves each flag to bit
    # k of its own byte; the eight lanes never overlap.
    packed = 0
    for k in range(8):
        packed |= int.from_bytes(marks[k::8], "little") << k
    return packed.to_bytes((p + 7) >> 3, "little")


def table_matches(p: int, table: object) -> bool:
    """Whether `table` has the length of `nonresidue_bits(p)` and agrees
    with Euler's criterion at _SPOT_CHECKS residues spread over 0 .. p - 1.

    A table that arrived from another process is checked this way: a torn
    one has the wrong length, and one built for another prime disagrees
    at about half the residues checked.
    """
    if not isinstance(table, bytes) or len(table) != (p + 7) >> 3:
        return False
    half = (p - 1) >> 1
    for k in range(_SPOT_CHECKS):
        r = k * (p - 1) // (_SPOT_CHECKS - 1)
        if table[r >> 3] >> (r & 7) & 1 != (pow(r + 1, half, p) == p - 1):
            return False
    return True


class ResidueFilter:
    """The scan kernel: n! mod the pool, filtered at every n >= 2.

    Front: the first len(tables) pool primes, tables[i] being
    `nonresidue_bits` of the prime at rank i, each carry r = n! mod p,
    advanced as r = r * n % p and looked up in its table on every n.
    Tail: the remaining primes share one residue R = n! mod their
    product, multiplied up to n only for the n that pass the front, then
    tested prime by prime with Euler's pow. Primes are tested in pool
    order, so the recorded rejecting prime is the first in pool order, as
    with `passes`.
    """

    def __init__(self, pool: PrimePool, state: FactorialState, tables: list[bytes]) -> None:
        primes = pool.primes
        self._width = len(tables)
        assert self._width <= min(_FRONT_WIDTH, len(primes))
        # A front narrower than the loop is padded with modulus-1 slots
        # that never reject, so the scan loop has one shape.
        pad = _FRONT_WIDTH - self._width
        self._moduli = list(primes[: self._width]) + [1] * pad
        self._tables = list(tables) + [_NEVER] * pad
        self._tail_primes = primes[self._width:]
        self._tail = [(p, (p - 1) >> 1) for p in self._tail_primes]
        self._modulus = math.prod(self._tail_primes)
        self.seek(state)

    def seek(self, state: FactorialState) -> None:
        """Reposition the stream at `state` and restart the rejection
        counts, keeping the front's tables."""
        assert len(state.residues) == self._width + len(self._tail)
        self.n = state.n
        self.rejections: Counter[int] = Counter()
        self._residues = list(state.residues[: self._width]) + [0] * (_FRONT_WIDTH - self._width)
        self._packed = _crt(state.residues[self._width:], self._tail_primes, self._modulus)
        self._packed_n = state.n

    def scan_to(self, hi: int, on_survivor: Callable[[int], None]) -> None:
        """Filter n = self.n + 1 .. hi, counting each rejection under its
        prime and calling on_survivor(n) in ascending n for the rest."""
        p0, p1, p2, p3 = self._moduli
        t0, t1, t2, t3 = self._tables
        r0, r1, r2, r3 = self._residues
        c0 = c1 = c2 = c3 = 0
        tail, modulus = self._tail, self._modulus
        packed, packed_n = self._packed, self._packed_n
        rejections, prod = self.rejections, math.prod
        # 0! == 1! == 1: n = 1 changes no residue and is never tested
        for n in range(max(self.n + 1, 2), hi + 1):
            r0 = r0 * n % p0
            r1 = r1 * n % p1
            r2 = r2 * n % p2
            r3 = r3 * n % p3
            if t0[r0 >> 3] >> (r0 & 7) & 1:
                c0 += 1
            elif t1[r1 >> 3] >> (r1 & 7) & 1:
                c1 += 1
            elif t2[r2 >> 3] >> (r2 & 7) & 1:
                c2 += 1
            elif t3[r3 >> 3] >> (r3 & 7) & 1:
                c3 += 1
            else:
                # one n behind, as every n is when no table is in front
                if packed_n == n - 1:
                    packed = packed * n % modulus
                else:
                    packed = packed * prod(range(packed_n + 1, n + 1)) % modulus
                packed_n = n
                for p, half in tail:
                    if pow(packed % p + 1, half, p) == p - 1:
                        rejections[p] += 1
                        break
                else:
                    on_survivor(n)
        for p, c in zip(self._moduli[: self._width], (c0, c1, c2, c3)):
            if c:
                rejections[p] += c
        self.n = max(self.n, hi)
        self._residues = [r0, r1, r2, r3]
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
