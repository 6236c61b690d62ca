from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brocard import qr_filter
from brocard.exact_arith import is_prime_64, legendre
from brocard.factorial_engine import (
    MAX_SUPPORTED_N,
    FactorialState,
    StreamError,
    build_prime_pool,
    primes_above,
    seed_state,
)
from brocard.qr_filter import (
    down_bits,
    nonresidue_bits,
    passes,
    scan_piece,
    table_pays,
    table_ranks,
)
from brocard.search_engine import DEFAULT_POOL_SIZE


def _exact_state(pool, n):
    return FactorialState(n=n, residue=math.factorial(n) % math.prod(pool.primes))


def _tables(pool, span):
    """The front tables a scan of `span` n builds."""
    return [nonresidue_bits(p) for p in pool.primes[:table_ranks(pool.primes, span)]]


def _reference(pool, lo, hi):
    """n -> first rejecting prime in pool order, or None, for n = lo .. hi,
    from `passes` on residues of the exact n!."""
    verdicts = {}
    modulus = math.prod(pool.primes)
    f = math.factorial(lo - 1)
    for n in range(lo, hi + 1):
        f *= n
        if n >= 2:
            state = FactorialState(n=n, residue=f % modulus)
            verdicts[n] = passes(state, pool).rejecting_prime
    return verdicts


def _kernel_verdicts(pool, start, stop):
    """n -> rejecting prime or None for n = start + 1 .. stop, one n per
    call, each from the residue the call before returned, n! mod the pool
    product."""
    tables = _tables(pool, stop - start)
    modulus = math.prod(pool.primes)
    residue = math.factorial(start) % modulus
    verdicts = {}
    for n in range(start + 1, stop + 1):
        survived, residue, counts = scan_piece(pool, tables, n - 1, residue, n)
        assert residue == math.factorial(n) % modulus
        if n >= 2:
            assert len(survived) + sum(counts.values()) == 1
            verdicts[n] = None if survived else next(iter(counts))
    return verdicts


def test_single_prime_examples():
    pool = build_prime_pool(10, 1)  # {11}
    # 6! + 1 = 721; (721 | 11) = -1.  4! + 1 = 25 is 3 mod 11, a residue (5^2)
    assert _kernel_verdicts(pool, 3, 6) == {4: None, 5: None, 6: 11}
    out = passes(_exact_state(pool, 6), pool)
    assert not out.passed
    assert out.rejecting_prime == 11
    assert out.symbols_evaluated == 1


def test_zero_symbol_passes():
    # 4! + 1 = 25 is divisible by the pool prime 5: symbol 0, not a rejection
    pool = build_prime_pool(4, 2)  # {5, 7}
    state = _exact_state(pool, 4)
    assert state.residue % 5 == 4  # 24 mod 5; 24 + 1 wraps to 0
    assert passes(state, pool).passed
    assert _kernel_verdicts(pool, 3, 4) == {4: None}


# (max_n, n, rank) with n! + 1 divisible by the pool prime at that rank
# (8-prime pool) while every earlier prime sees a residue: the zero symbol
# is evaluated, and must pass.
ZERO_SYMBOLS = [(4, 4, 0), (5, 5, 1), (11, 9, 2), (31, 23, 3), (23, 23, 5),
                (1008, 1008, 0)]  # 1009 is prime: 1008! == -1 by Wilson


@pytest.mark.parametrize("max_n,n,rank", ZERO_SYMBOLS)
@pytest.mark.parametrize("one_step", [True, False])
def test_zero_symbol_passes_in_every_tier(max_n, n, rank, one_step):
    pool = build_prime_pool(max_n, 8)
    p = pool.primes[rank]
    value = math.factorial(n) + 1
    assert value % p == 0
    assert all(legendre(value % q, q) == 1 for q in pool.primes[:rank])
    assert passes(_exact_state(pool, n), pool).symbols_evaluated > rank
    # one step from n - 1 and the whole range from 0: for 1009 the pow
    # side and the table side of the front
    start = n - 1 if one_step else 0
    if p == 1009:
        assert table_pays(p, 0, n - start) == (start == 0)
    assert _kernel_verdicts(pool, start, n) == _reference(pool, start + 1, n)


def test_solutions_always_pass():
    pool = build_prime_pool(100, 48)
    verdicts = _kernel_verdicts(pool, 0, 100)
    assert [n for n, v in verdicts.items() if v is None] == [4, 5, 7]
    for n in (4, 5, 7):
        out = passes(_exact_state(pool, n), pool)
        assert out.passed
        assert out.symbols_evaluated == 48


def test_first_rejecting_prime_in_pool_order():
    # oracle: evaluate every symbol directly on n! + 1
    pool = build_prime_pool(60, 10)
    kernel = _kernel_verdicts(pool, 0, 60)
    for n in range(2, 61):
        state = _exact_state(pool, n)
        out = passes(state, pool)
        value = math.factorial(state.n) + 1
        rejectors = [p for p in pool.primes if legendre(value % p, p) == -1]
        if rejectors:
            assert not out.passed
            assert out.rejecting_prime == rejectors[0]
            assert out.symbols_evaluated == pool.primes.index(rejectors[0]) + 1
        else:
            assert out.passed
            assert out.symbols_evaluated == len(pool.primes)
        assert kernel[state.n] == (rejectors[0] if rejectors else None)


def test_soundness_no_false_rejection_small():
    # any rejected n must genuinely have non-square n! + 1
    pool = build_prime_pool(300, 8)
    kernel = _kernel_verdicts(pool, 0, 300)
    for n in range(2, 301):
        state = _exact_state(pool, n)
        assert passes(state, pool).rejecting_prime == kernel[state.n]
        if kernel[state.n] is not None:
            f1 = math.factorial(state.n) + 1
            assert math.isqrt(f1) ** 2 != f1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009, 30011])
def test_nonresidue_bits_match_euler(p):
    bits = nonresidue_bits(p)
    assert len(bits) == (p + 7) // 8
    for r in range(p):
        assert bits[r >> 3] >> (r & 7) & 1 == (legendre((r + 1) % p, p) == -1)


def _squares_reference(p):
    """nonresidue_bits(p) from the set of nonzero squares mod p."""
    squares = {x * x % p for x in range(1, p // 2 + 1)}
    bits = bytearray((p + 7) >> 3)
    for r in range(p - 1):
        if r + 1 not in squares:
            bits[r >> 3] |= 1 << (r & 7)
    return bytes(bits)


def test_nonresidue_bits_match_squares_below_5000():
    # every odd prime p < 5000: both signs of -1, and every block shape
    # of the division recurrence at small p
    primes = [p for p in range(3, 5000, 2) if is_prime_64(p)]
    assert len(primes) == 668
    for p in primes:
        assert nonresidue_bits(p) == _squares_reference(p), p


@pytest.mark.parametrize("p", [1_000_003, 1_000_033])
def test_nonresidue_bits_match_squares_at_pool_primes(p):
    # the first two pool primes of a 10**6 scan: -1 is a nonresidue mod
    # 1000003 (3 mod 4) and a residue mod 1000033 (1 mod 4); their widest
    # blocks are copied in several slices
    assert p in build_prime_pool(1_000_000, 2).primes
    assert (p % 4 == 3) == (p == 1_000_003)
    assert (p - 1) // 2 > 2 * qr_filter._SLICE_BYTES
    assert nonresidue_bits(p) == _squares_reference(p)


def _euler_down(p, u):
    """Bit u of the down table of p by Euler's criterion: (u (u - 1) | p)."""
    return pow(u * (u - 1), (p - 1) >> 1, p) == p - 1


def test_down_bits_match_euler_below_5000():
    # every odd prime p < 5000, every u < p
    for p in (p for p in range(3, 5000, 2) if is_prime_64(p)):
        table = down_bits(nonresidue_bits(p), p)
        assert len(table) == (p + 7) >> 3
        assert [table[u >> 3] >> (u & 7) & 1 for u in range(p)] == [
            _euler_down(p, u) for u in range(p)], p
        # no bit at or past p
        assert int.from_bytes(table, "little") >> p == 0


@pytest.mark.parametrize("p", [1_000_003, 1_000_033])
def test_down_bits_match_euler_at_pool_primes(p):
    # both ends of the table and a stride through it
    table = down_bits(nonresidue_bits(p), p)
    assert int.from_bytes(table, "little") >> p == 0
    for u in [*range(5000), *range(p - 5000, p), *range(5000, p - 5000, 997)]:
        assert table[u >> 3] >> (u & 7) & 1 == _euler_down(p, u), u


@settings(max_examples=12, deadline=None)
@given(bits=st.integers(2, 24), offset=st.integers(0, 2**23),
       picks=st.lists(st.integers(0, 2**24), max_size=64))
@example(bits=24, offset=2**23 - 1, picks=[])
def test_nonresidue_bits_agree_with_legendre_below_2_24(bits, offset, picks):
    # a prime of each bit length up to the table cap, checked at its edge
    # residues and at random ones
    start = min(2 ** (bits - 1) + offset % 2 ** (bits - 1), 2**24 - 40)
    p = next(primes_above(start))
    assert p < 2**24
    table = nonresidue_bits(p)
    assert len(table) == (p + 7) >> 3
    for r in [0, 1, p - 2, p - 1, *(x % p for x in picks)]:
        assert table[r >> 3] >> (r & 7) & 1 == (legendre((r + 1) % p, p) == -1), (p, r)


# past the old 2**24 table cap and up to near 2**26: the first prime of
# each class mod 4 above 2**24 and above 2**26 - 2**21
_PAST_THE_OLD_CAP = [next(p for p in primes_above(start) if p % 4 == cls)
                     for start in (2**24, 2**26 - 2**21) for cls in (1, 3)]


@pytest.mark.parametrize("p", _PAST_THE_OLD_CAP)
def test_nonresidue_bits_agree_with_legendre_past_2_24(p):
    # the ends, the seam between the lower half of flags and its reversed
    # copy at bit h, and random residues
    assert 2**24 < p < 2**26
    h = (p - 1) // 2
    rng = random.Random(p)
    table = nonresidue_bits(p)
    assert len(table) == (p + 7) >> 3
    assert int.from_bytes(table, "little") >> (p - 1) == 0
    for r in [0, 1, *range(h - 9, h + 10), p - 2, p - 1, *(rng.randrange(p) for _ in range(64))]:
        assert table[r >> 3] >> (r & 7) & 1 == (legendre((r + 1) % p, p) == -1), (p, r)


def _stepped(pool, lo, hi):
    """The survivors and rejection counts of n = lo + 1 .. hi from `passes`
    n by n, stepped up from the seed_state at lo, with lo! and hi! mod the
    pool product. hi! is checked against the seed_state at hi."""
    modulus = math.prod(pool.primes)
    start = residue = seed_state(pool, lo).residue
    survivors, counts = [], Counter()
    for n in range(lo + 1, hi + 1):
        residue = residue * n % modulus
        outcome = passes(FactorialState(n=n, residue=residue), pool)
        if outcome.passed:
            survivors.append(n)
        else:
            counts[outcome.rejecting_prime] += 1
    assert residue == seed_state(pool, hi).residue
    return survivors, dict(counts), start, residue


def test_pieces_with_tables_past_2_24():
    # a pool above 2**24 with every rank tested by table, up and down from
    # either end's seed_state, against `passes` n by n
    pool = build_prime_pool(2**24, 3)
    assert pool.primes[0] > 2**24
    lo, hi = 2**24 - 400, 2**24
    up = [nonresidue_bits(p) for p in pool.primes]
    down = [down_bits(table, p) for table, p in zip(up, pool.primes)]
    survivors, counts, start, end = _stepped(pool, lo, hi)
    assert survivors and len(counts) == 3
    assert scan_piece(pool, up, lo, start, hi) == (survivors, end, counts)
    assert scan_piece(pool, down, hi, end, lo) == (survivors, start, counts)


@pytest.mark.parametrize("max_n", [10**9, MAX_SUPPORTED_N], ids=["1e9", "ceiling"])
def test_table_less_window_at_full_scale(max_n):
    # The last 10**4 n below max_n, scanned down without tables from the
    # seed_state at the top, as a shard child with no table would, against
    # `passes` n by n up from the seed_state at the window's low end. At
    # the ceiling every pool prime is above 2**30, two CPython digits.
    pool = build_prime_pool(max_n, DEFAULT_POOL_SIZE)
    assert (pool.primes[0] > 2**30) == (max_n == MAX_SUPPORTED_N)
    lo = max_n - 10**4
    survivors, counts, start, end = _stepped(pool, lo, max_n)
    assert len(counts) > 8
    assert scan_piece(pool, [], max_n, end, lo) == (survivors, start, counts)


def test_table_side_follows_segment_length(monkeypatch):
    # the benchmark's three search shapes: a 10^6 scan on 2 shards and a
    # 3 * 10^4 settle on one build tables for every leading prime; resuming
    # the last 10^4 n of a 10^6 scan (one shard) builds three, for ranks 0
    # to 2
    scan = build_prime_pool(1_000_000, 4).primes
    settle = build_prime_pool(30_600, 4).primes
    assert all(table_pays(p, i, 1_000_000, 2) for i, p in enumerate(scan))
    assert all(table_pays(p, i, 30_600) for i, p in enumerate(settle))
    assert [table_pays(p, i, 10_000) for i, p in enumerate(scan)] == [True, True, True, False]
    # the tabled ranks are those that pay: 9 for the scan, the whole pool
    # for the settle shape, 3 for the resume one, all of a smaller pool
    assert table_ranks(build_prime_pool(1_000_000, 48).primes, 1_000_000, 2) == 9
    assert table_ranks(build_prime_pool(30_600, 8).primes, 30_600) == 8
    assert table_ranks(build_prime_pool(1_000_000, 48).primes, 10_000) == 3
    assert table_ranks(build_prime_pool(1_000_000, 2).primes, 1_000_000, 2) == 2
    # past the loop's 4 slots a table still pays at 10**6, up to rank 8
    ranks = build_prime_pool(1_000_000, 10).primes
    assert table_pays(ranks[4], 4, 1_000_000, 2)
    assert table_pays(ranks[8], 8, 1_000_000, 2) and not table_pays(ranks[9], 9, 1_000_000, 2)
    # memory, not a size cap, bounds the tables: one up set, one down set
    # once the scan forks, and one build in passing, whatever the shard
    # count. 2**31 - 1 pays and fits on one shard or two, its up and down
    # tables and one build's temporaries. A scan to 10**8 on 2 shards tests
    # 9 ranks by table, one to 10**9 six on 2 to 4 shards, where time alone
    # would give 9.
    size = 2**28  # bytes in the table of 2**31 - 1
    assert size * (2 + qr_filter._BUILD_SIZES) <= qr_filter._TABLE_MEMORY
    assert table_pays(2**31 - 1, 0, 2**32) and table_pays(2**31 - 1, 0, 2**32, 2)
    assert table_ranks(build_prime_pool(10**8, 12).primes, 10**8, 2) == 9
    billion = build_prime_pool(10**9, 12).primes
    assert [table_ranks(billion, 10**9, s) for s in (1, 2, 3, 4)] == [10, 6, 6, 6]
    monkeypatch.setattr(qr_filter, "_TABLE_MEMORY", 1 << 40)
    assert table_ranks(billion, 10**9, 2) == 9


def test_shards_price_fewer_ranks():
    # every table is built before the fork, on every shard's path, and
    # saves each shard only its share of the span: the same span pays for
    # fewer ranks the more shards it is cut into
    primes = build_prime_pool(1_000_000, 48).primes
    assert [table_ranks(primes, 1_000_000, shards) for shards in (1, 2, 4)] == [10, 9, 8]


@settings(max_examples=80, deadline=None)
@given(size=st.sampled_from([1, 2, 3, 4, 8, 48]),
       max_n=st.integers(1, 2500),
       side=st.sampled_from(["table", "pow"]),
       data=st.data())
def test_kernel_matches_reference(size, max_n, side, data):
    """The kernel over a segment starting anywhere, cut into several
    scan_piece calls as checkpoints cut it, each from the end and residue
    of the record before, gives in each call per prime the same
    rejections and the same survivors as `passes` on exact residues,
    which together account for every n the call scanned, and the residue
    it returns is n! mod the pool product at every cut. A piece run again
    from its predecessor's record returns the same record: no state
    passes between calls but the record."""
    pool = build_prime_pool(max_n, size)
    p0 = pool.primes[0]
    start = data.draw(st.integers(0, max_n - 1), label="start")
    # on the table side spans long enough for a table, with the tables a
    # scan of the span builds; on the pow side any span, with no table
    spans = [s for s in range(1, min(max_n - start, 400) + 1)
             if side == "pow" or table_pays(p0, 0, s)]
    if not spans:
        return
    stop = start + data.draw(st.sampled_from(spans), label="span")
    cuts = sorted(set(data.draw(st.lists(st.integers(start + 1, stop), max_size=4),
                                label="cuts")) | {stop})

    tables = _tables(pool, stop - start) if side == "table" else []
    reference = _reference(pool, start + 1, stop)
    lo, residue = start, _exact_state(pool, start).residue
    pieces = []
    for hi in cuts:
        record = scan_piece(pool, tables, lo, residue, hi)
        pieces.append(((lo, residue, hi), record))
        survived, residue, counts = record
        expected = [reference[n] for n in range(max(lo + 1, 2), hi + 1)]
        assert survived == [n for n in range(max(lo + 1, 2), hi + 1) if reference[n] is None]
        assert counts == dict(Counter(p for p in expected if p is not None))
        assert sum(counts.values()) + len(survived) == len(expected)
        assert residue == math.factorial(hi) % math.prod(pool.primes)
        lo = hi
    start_of, record = pieces[data.draw(st.integers(0, len(pieces) - 1), label="again")]
    assert scan_piece(pool, tables, *start_of) == record


@settings(max_examples=80, deadline=None)
@given(size=st.sampled_from([1, 2, 3, 48]), max_n=st.integers(1, 3000),
       ranks=st.integers(0, 8), data=st.data())
@example(size=2, max_n=3000, ranks=2, data=None)  # 3001 is prime: hi = p - 1
@example(size=48, max_n=1008, ranks=8, data=None)  # 1008! == -1 (mod 1009)
def test_down_pieces_match_up_pieces(size, max_n, ranks, data):
    """A piece scanned down from hi! with down tables returns the record
    of the same piece scanned up from lo!: its survivors, its counts and
    lo!, each stream value n! mod the pool product."""
    pool = build_prime_pool(max_n, size)
    if data is None:
        lo, hi = 0, max_n
    else:
        lo = data.draw(st.integers(0, max_n - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, max_n), label="hi")
    up = [nonresidue_bits(p) for p in pool.primes[:ranks]]
    down = [down_bits(table, p) for table, p in zip(up, pool.primes)]
    modulus = math.prod(pool.primes)
    lo_factorial = math.factorial(lo) % modulus
    survivors, residue, counts = scan_piece(pool, up, lo, lo_factorial, hi)
    assert residue == math.factorial(hi) % modulus
    assert scan_piece(pool, down, hi, residue, lo) == (survivors, lo_factorial, counts)


@pytest.mark.parametrize("down", [False, True], ids=["up", "down"])
def test_a_drifting_packed_stream_fails_its_piece(monkeypatch, down):
    """The front residues are multiplied apart from the packed residue that
    crosses pieces, and each piece compares them at its end. A catch-up
    product of two or more factors gone wrong (the front multiplies one
    factor at a time) fails the piece instead of returning a wrong
    record."""
    pool = build_prime_pool(3000, 8)
    up = [nonresidue_bits(p) for p in pool.primes[:2]]
    tables = [down_bits(table, p) for table, p in zip(up, pool.primes)] if down else up
    start, end = (3000, 1000) if down else (1000, 3000)
    residue = math.factorial(start) % math.prod(pool.primes)
    survivors, _, counts = scan_piece(pool, tables, start, residue, end)
    # n pass the two-table front and reach the packed tail
    assert survivors and set(counts) - set(pool.primes[:2])
    perm = math.perm
    monkeypatch.setattr(math, "perm", lambda n, k: perm(n, k) * (2 if k >= 2 else 1))
    with pytest.raises(StreamError, match=f"the front of the piece {start}..{end} disagrees"):
        scan_piece(pool, tables, start, residue, end)
