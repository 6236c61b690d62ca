"""Quadratic-residue rejection filter.

If n! + 1 is a perfect square then n! + 1 is a quadratic residue (or
zero) modulo every prime. A pool prime p with Legendre symbol
(n! + 1 | p) == -1 therefore disproves n without computing n! itself.
The filter is sound by construction: it can only reject non-solutions.
Each pool prime passes a random non-solution with probability about 1/2,
so a 48-prime pool leaks a false survivor roughly once in 2**48 trials.

`scan_piece` is the kernel the scan runs, one piece of n at a time, up
or down, from n! mod the pool product at one end of the piece to n! at
the other. Down it carries u = (n + 1)...(p - 1) instead, n! == -1 / u
by Wilson's theorem, and `down_bits` turns each table into the one that
tests u. `passes` evaluates one stream position symbol by symbol and is
kept as the reference the tests hold the kernel to.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .factorial_engine import FactorialState, PrimePool, StreamError

# Scan loop slots, each streaming one front prime and testing it by its
# nonresidue table (the loop is written out for exactly this many). A
# fifth slot would cost a multiplication on every n to spare a tail test
# on one n in 32. Pool primes past the front are packed into one residue
# and caught up only for the n the front passes.
_FRONT_WIDTH = 4

# Table or pow, measured on a 2-core x86-64 VM under CPython 3.11: in the
# kernel, tables save 1880-2080 ns per symbol they answer in place of
# Euler's pow with p near 10**6 (8 tables against 4 and against none, over
# 6 * 10**4 n; pow alone costs 1220-1310 ns more than a lookup, 1630-2170
# near 2**24 and 10**8, and a rank left to pow sends its n on to the
# tail). A table costs 2.2-3.7 ns per entry to build, the first build in a
# fresh process included (medians of five: 3.4 near 10**6, 2.3 near 2**24,
# 2.4 near 10**8, 2.7 near 10**9).
_POW_SAVING_NS = 1900
_BUILD_NS_PER_ENTRY = 3
# Memory, in table sizes (p / 8 bytes): a build passes through 3.5 more
# than the table it makes, mostly its p / 2 flag bytes, and `down_bits`
# through 2.2 more than the copy it makes (tracemalloc peaks near 10**8).
# A scan runs one of them at a time.
_BUILD_SIZES = 4
# A scan builds no table that would take its tables past this many bytes.
_TABLE_MEMORY = 1 << 31

# The table of a padded front slot: its modulus is 1, so r is always 0,
# and bit 0 is clear, so the slot never rejects.
_NEVER = b"\x00"

# `nonresidue_bits` copies flags in slices of at most this many bytes, and
# packs them 8 times as many at a time, so its transient memory stays near
# its one flag array of p / 2 bytes.
_SLICE_BYTES = 1 << 16
# bytes.translate tables: swap the flags 0 and 1; reverse the bits of a
# byte; reverse and complement them
_FLIP = b"\x01\x00" + bytes(254)
_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_REVERSE_NOT = bytes(255 - b for b in _REVERSE)


class FilterOutcome(NamedTuple):
    passed: bool
    rejecting_prime: int | None
    symbols_evaluated: int


def passes(state: FactorialState, pool: PrimePool) -> FilterOutcome:
    """Evaluate (n! + 1 | p) over the pool in order, stopping at the first -1.

    The rejecting prime, when any prime rejects, is the earliest in pool
    order, so the outcome is independent of evaluation strategy.
    """
    evaluated = 0
    for p in pool.primes:
        evaluated += 1
        a = state.residue % p + 1
        if a == p:
            # symbol is 0; a square can be divisible by p
            continue
        if pow(a, (p - 1) >> 1, p) == p - 1:
            return FilterOutcome(passed=False, rejecting_prime=p, symbols_evaluated=evaluated)
    return FilterOutcome(passed=True, rejecting_prime=None, symbols_evaluated=evaluated)


def table_pays(p: int, rank: int, span: int, shards: int = 1) -> bool:
    """Whether a scan of `span` n cut into `shards` shards gains by a
    nonresidue table for the prime p at pool rank `rank`: whether the
    tables of ranks 0 .. rank fit in _TABLE_MEMORY, and the table saves
    one shard more wall time than it costs to build.

    The prime at rank i is consulted for about 2**-i of all n, since each
    earlier prime rejects about half of what reaches it. Every table is
    built before the fork, on the path of every shard, and each shard
    scans about span / shards n with it. Memory counts, at p for every
    rank (p is largest at the last): the up tables, their down set
    (`down_bits`, derived once before the fork and shared by every shard
    child) when the scan forks, and one build or derivation in passing,
    whatever the shard count.
    """
    size = (p + 7) >> 3
    held = size * ((rank + 1) * (2 if shards > 1 else 1) + _BUILD_SIZES)
    return (held <= _TABLE_MEMORY
            and (span // shards * _POW_SAVING_NS >> rank) > p * _BUILD_NS_PER_ENTRY)


def table_ranks(primes: tuple[int, ...], span: int, shards: int = 1) -> int:
    """How many leading pool ranks a scan of `span` n on `shards` shards
    tests by table: those where `table_pays` holds. Since the rule falls
    with rank, they are a prefix of the pool, and since a scan's span is
    below its primes, at most about log2(_POW_SAVING_NS /
    _BUILD_NS_PER_ENTRY) ranks long."""
    width = 0
    while width < len(primes) and table_pays(primes[width], width, span, shards):
        width += 1
    return width


def nonresidue_bits(p: int) -> bytes:
    """Bit r (little-endian within each byte) is set iff r + 1 is a nonzero
    quadratic nonresidue mod p, for 0 <= r < p.

    Indexed by the residue r = n! mod p itself, so a lookup needs no add.
    Bit p - 1 (r + 1 == p, symbol 0) is clear.
    """
    # flags[a] = 1 iff a is a nonresidue, for 1 <= a <= h = (p - 1) / 2.
    # Euler's criterion settles the primes up to sqrt(p), and a composite
    # there gets the xor of two factors' flags. Above sqrt(p), s = p // a
    # and t = p - a*s give a*s == -t (mod p) with s, t < a, so a's flag is
    # t's flag, flipped when exactly one of -1 and s is a nonresidue: one
    # by one up to 3 sqrt(p), where one s covers at most about 9 a, then
    # for each s, as a runs over (p / (s + 1), p / s] while t falls by s,
    # as one strided slice of flags already set.
    h = (p - 1) >> 1
    root = math.isqrt(p)
    flags = bytearray(h + 1)
    factor = [0] * (root + 1)
    for a in range(2, min(root, h) + 1):
        q = factor[a]
        if q:
            flags[a] = flags[q] ^ flags[a // q]
        else:
            flags[a] = pow(a, h, p) != 1
            if a * a <= root:
                factor[a * a::a] = [a] * ((root - a * a) // a + 1)
    minus_one = p & 3 == 3
    singles = min(3 * root, h)
    for a in range(root + 1, singles + 1):
        s = p // a
        flags[a] = flags[p - a * s] ^ flags[s] ^ minus_one
    for s in range(p // (singles + 1), 1, -1):
        hi = min(p // s, h)
        for a in range(p // (s + 1) + 1, hi + 1, _SLICE_BYTES):
            b = min(a + _SLICE_BYTES, hi + 1)
            t = p - a * s
            # t, t - s, ..., down to the t of a = b - 1, which is >= 1
            block = flags[t:t - (b - a - 1) * s - 1:-s]
            flags[a:b] = block.translate(_FLIP) if minus_one ^ flags[s] else block
    # Bit r < h is flags[r + 1]. In each slice of flags, lane k (flags k +
    # 1, k + 9, ...) read as one little-endian integer and shifted by k
    # moves each flag to bit k of its own byte; the eight lanes never
    # overlap.
    low = bytearray((h + 7) >> 3)
    for c in range(1, h + 1, 8 * _SLICE_BYTES):
        end = min(c + 8 * _SLICE_BYTES, h + 1)
        packed = 0
        for k in range(8):
            packed |= int.from_bytes(flags[c + k:end:8], "little") << k
        low[c >> 3:(end + 6) >> 3] = packed.to_bytes((end - c + 7) >> 3, "little")
    del flags
    # Bit h + r, r < h, is flags[h - r], flipped when -1 is a nonresidue,
    # since (p - a | p) = (-1 | p)(a | p): the h low bits reversed. The
    # bytes of `low` reversed, each bit-reversed (and complemented), hold
    # them at the top, above 8 * len(low) - h padding bits; shifted to bit
    # k of byte j, where bit h falls, they fill the table from byte j on,
    # once byte j's k low bits are the last of `low`. Bit p - 1 = 2h stays
    # clear.
    k, j = h & 7, h >> 3
    high = int.from_bytes(low[::-1].translate(_REVERSE_NOT if minus_one else _REVERSE), "little")
    shift = (8 - k) % 8 - k
    high = high >> shift if shift >= 0 else high << -shift
    if k:
        high ^= (high & ((1 << k) - 1)) ^ low[j]
    return b"".join((memoryview(low)[:j], high.to_bytes(((p + 7) >> 3) - j, "little")))


def down_bits(table: bytes, p: int) -> bytes:
    """The table of a scan running down, from `nonresidue_bits(p)`.

    Down from the top, position n carries u = (n + 1)(n + 2)...(p - 1)
    mod p, and Wilson's theorem gives n! == -1 / u, so n! + 1 ==
    (u - 1) / u and (n! + 1 | p) == (u (u - 1) | p). Bit u is set iff
    that symbol is -1: iff exactly one of u and u - 1 is a nonresidue,
    which are bits u - 1 and u - 2 of the up table. Bits 0 and 1 (a
    product of 0) stay clear.
    """
    down = int.from_bytes(table, "little")
    down ^= down << 1
    down <<= 1
    # bit p, from bit p - 2, is the one bit at or past p that can be set
    down ^= down >> p << p
    return down.to_bytes(len(table), "little")


def scan_piece(pool: PrimePool, tables: list[bytes], start: int, residue: int,
               end: int) -> tuple[list[int], int, dict[int, int]]:
    """The scan kernel: filter the n between `start` and `end`, n >= 2,
    in either direction, from `residue`, start! mod the product of the
    whole pool. Returns the piece's record: the n that pass, ascending,
    end! mod the pool product, and the piece's rejections as a count per
    rejecting prime. The record is all the next piece needs, so pieces
    run from any predecessor's record, and it is the same whichever way
    the piece was scanned.

    Up (start <= end) the piece is n = start + 1 .. end and the stream at
    n is n!. Down (end < start) the piece is n = end + 1 .. start,
    scanned from start down, and the stream at n is u = -1 / n!, so each
    step multiplies by n and only the two ends take an inverse.

    tables[i] is the table of the prime at pool rank i, `nonresidue_bits`
    up and `down_bits` down, for the leading ranks a scan tests by table.
    Front: the first min(len(tables), _FRONT_WIDTH) of them each carry
    r = the stream mod p, looked up in its table on every n and then
    advanced by one multiplication: by the next n up, by this n down.
    Behind it the packed stream R is caught up, in either direction by one
    product of the n between, only to the n that pass the front (and to
    `end` at the end). Then the primes past the front are tested one by
    one from one list: by r = R mod p and a table lookup while tables
    last, by Euler's criterion on r + 1 (up) or u (u - 1) (down) after.
    Primes are tested in pool order, so the rejecting prime counted is the
    first in pool order, as with `passes`. StreamError if the front and
    the packed stream, multiplied apart, end the piece at different
    residues.
    """
    primes = pool.primes
    down = end < start
    lo, hi = (end, start) if down else (start, end)
    # 0! == 1! == 1: n = 1 changes no residue and is never tested
    first = max(lo + 1, 2)
    width = min(len(tables), _FRONT_WIDTH)
    # A front narrower than the loop is padded with modulus-1 slots that
    # never reject, so the scan loop has one shape.
    pad = _FRONT_WIDTH - width
    moduli = list(primes[:width]) + [1] * pad
    p0, p1, p2, p3 = moduli
    t0, t1, t2, t3 = list(tables[:width]) + [_NEVER] * pad
    perm = math.perm
    modulus = math.prod(primes)
    # Each step tests the front, then multiplies it on: up by the next n
    # (step n tests n - 1), down by the n just tested. So the front starts
    # at the first n tested, and a down scan from n = p - 1, where u is
    # the empty product 1, never multiplies by p.
    if down:
        # -1 / x mod the pool product turns n! into u, and u back into n!
        residue = -pow(residue, -1, modulus) % modulus
        front, steps = residue, (hi, first - 1, -1)
    else:
        front, steps = residue * perm(first, first - lo), (first + 1, hi + 2)
    r0, r1, r2, r3 = [front % p for p in moduli]
    c0 = c1 = c2 = c3 = 0
    tail = primes[width:]
    # (tail rank, p, its table while tables last, else None, (p - 1) / 2)
    tests = [(i, p, table, (p - 1) >> 1) for i, (p, table) in
             enumerate(zip(tail, [*tables[width:], *[None] * len(tail)]))]
    counts = [0] * len(tail)
    survivors: list[int] = []
    packed, packed_n = residue, start
    for n in range(*steps):
        if t0[r0 >> 3] >> (r0 & 7) & 1:
            c0 += 1
        elif t1[r1 >> 3] >> (r1 & 7) & 1:
            c1 += 1
        elif t2[r2 >> 3] >> (r2 & 7) & 1:
            c2 += 1
        elif t3[r3 >> 3] >> (r3 & 7) & 1:
            c3 += 1
        else:
            # m, the n tested; the factors between it and the packed
            # stream's n are max(m, packed_n) down to min(m, packed_n) + 1
            m = n if down else n - 1
            packed = packed * perm(max(m, packed_n), abs(m - packed_n)) % modulus
            packed_n = m
            for i, p, table, half in tests:
                r = packed % p
                if (table[r >> 3] >> (r & 7) & 1 if table is not None else
                        pow(r * (r - 1) if down else r + 1, half, p) == p - 1):
                    counts[i] += 1
                    break
            else:
                survivors.append(m)
        r0 = r0 * n % p0
        r1 = r1 * n % p1
        r2 = r2 * n % p2
        r3 = r3 * n % p3
    packed = packed * perm(max(end, packed_n), abs(end - packed_n)) % modulus
    # The front, multiplied apart from the packed stream, must end at its
    # value: at u down, one factor past `end` up (at 2! for an empty piece
    # at 0). Padded slots compare 0 with 0.
    at = packed if down else packed * max(end + 1, 2)
    if [r0, r1, r2, r3] != [at % p for p in moduli]:
        raise StreamError(f"the front of the piece {start}..{end} disagrees "
                          "with its packed stream")
    if down:
        survivors.reverse()
        packed = -pow(packed, -1, modulus) % modulus
    # a padded slot never rejects, so its count stays 0
    return survivors, packed, {p: c for p, c in zip(
        moduli + list(tail), [c0, c1, c2, c3] + counts) if c}
