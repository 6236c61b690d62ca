"""Resumable filtered scan for solutions of n! + 1 = m**2.

The scan advances a factorial residue stream over a fixed prime pool and
applies the quadratic-residue filter (`qr_filter.scan_piece`) at every
n. Each survivor is settled by one `conditions.verify` call: a further
prime above n that rejects it (a Legendre certificate, reported with the
survivor), else an exact verdict; a survivor with neither, beyond the
exact-verification ceiling, is reported UNRESOLVED rather than silently
dropped. Every scan is cut into pieces on the `CHECKPOINT_INTERVAL`
grid: at each grid point the survivors so far are settled and reported,
and, given a path, progress is checkpointed to a small text file so a
scan can be killed and resumed without rework.

A long range is cut into shards, one per available core. The calling
process builds the kernel's nonresidue tables and, when the scan forks,
derives their down set (`qr_filter.down_bits`) once. It forks a child
for each shard but the first, and every child inherits that one down
set copy-on-write; then it drops its own reference and runs the first
shard itself, up from the scan's start. Every child scans its range down
from its top with the down set, from n! mod the pool product at that top
(`seed_state`, from whichever end of the pool is nearer). The stream
crosses every boundary between layers as n! mod the pool product. Once
its range is scanned, a child sends back over a pipe one record per
piece of it, top piece first: the survivors, n! at the piece's top and
the rejection counts; then n! at its lower cut, reached down from its
top. The calling process checks that residue against the one reached
from below, shard 0's last or the previous child's top, so every cut
checks two streams computed apart. A scan that runs in one shard has
no cut: its last residue is checked against `seed_state` where it
stops, from the nearer end of the pool. Every piece checks its front
against its packed stream (`scan_piece`). The calling process settles
every survivor, delivers every event and writes every checkpoint, in
ascending n, exactly as a one-process run would; it reads a child's
pieces once its own shard is done. While children run, SIGTERM raises
SystemExit in the calling process, so they are killed and reaped on
the way out.

Determinism is a hard requirement: for a fixed pool, the reported
stream, all counters and every checkpoint are identical whether the scan
ran in one pass, in shards, or was stopped and resumed. The first rejecting prime in
pool order is the one recorded.
"""

from __future__ import annotations

import marshal
import os
import threading
import time
import zlib
from collections import Counter
from typing import BinaryIO, Callable, Iterator, NamedTuple, NoReturn

from . import conditions
from .factorial_engine import (
    CeilingError,
    FactorialState,
    PrimePool,
    StreamError,
    build_prime_pool,
    seed_state,
)
from .qr_filter import down_bits, nonresidue_bits, scan_piece, table_ranks

DEFAULT_POOL_SIZE = 48
# Every scan settles its survivors at each multiple of this n and where
# it stops; one with a checkpoint path saves a checkpoint there too.
CHECKPOINT_INTERVAL = 100_000

# A range is sharded only where each shard gets at least this many n: a
# shard pays a fork and the start of its stream.
_MIN_SHARD_SPAN = 1 << 17
# Each factor of a shard child's start (`seed_state`) costs about this
# share of scanning one n: 136-199 ns per factor for n = 2.5-7.5 * 10**5
# against 640-1069 ns per n scanned down with the 48-prime pool of a
# 10**6 scan and its 8 tables, a share of 0.18-0.25, median 0.19, over
# nine runs (medians of five each, 2-core x86-64 VM, CPython 3.11). The
# balance is flat in it: 0.19 would move the 2-shard cut of that scan by
# 3 n and the 4-shard cuts by under 1 %.
_SEED_COST = 0.18

_CHECKPOINT_MAGIC = b"BROCARD-CHECKPOINT v1"

# (kind, n, m, rejecting_prime)
EventCallback = Callable[[str, int, "int | None", "int | None"], None]


class CheckpointError(Exception):
    """A checkpoint that `load_checkpoint` refuses. All are fatal."""


class ShardError(Exception):
    """A forked scan shard raised, died, sent an unreadable record, or
    reached its lower cut at a residue other than the one from below."""


class SearchConfig(NamedTuple):
    max_n: int
    pool_size: int = DEFAULT_POOL_SIZE
    checkpoint_path: str | None = None
    resume: bool = False
    # Halt after this n (checkpoint saved), leaving the scan resumable.
    # Used to exercise resume paths without killing the process.
    stop_n: int | None = None


class SearchSummary(NamedTuple):
    """What one run segment did. Counters cover this segment only."""

    scanned_range: tuple[int, int]
    resumed_from: int | None
    completed: bool
    solutions: list[tuple[int, int]]
    survivors: int
    unresolved: list[int]
    rejections_by_prime: dict[int, int]
    wall_time_s: float


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_bytes(state: FactorialState, pool: PrimePool) -> bytes:
    """The one encoding of a checkpoint.

    Layout is line-oriented ASCII: a version marker, max_n, n, the prime
    count, one prime,residue pair (n! mod that prime) per pool prime in
    pool order, and a CRC32 over every preceding byte.
    """
    lines = [
        _CHECKPOINT_MAGIC.decode("ascii"),
        f"max_n={pool.max_n}",
        f"n={state.n}",
        f"primes={len(pool.primes)}",
    ]
    lines.extend(f"{p},{state.residue % p}" for p in pool.primes)
    body = ("\n".join(lines) + "\n").encode("ascii")
    return body + b"crc32=%08x\n" % zlib.crc32(body)


def save_checkpoint(state: FactorialState, pool: PrimePool, path: str) -> None:
    """Write the stream position's `_checkpoint_bytes` atomically (temp
    file, fsync, then rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(_checkpoint_bytes(state, pool))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str, pool: PrimePool) -> FactorialState:
    """The stream position of the checkpoint at path, if it is the file
    `save_checkpoint` writes for this pool; CheckpointError if not.

    Validation order: version marker; the checksum line against the CRC32
    of the body; the max_n, n and primes field lines; the scan's bound
    and pool size against this pool's; last, the whole file against the
    bytes written for the `seed_state` at its n. That last check proves
    every residue and refuses any other spelling of the same position,
    such as a leading zero. Each refusal's message names the check that
    failed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    first_line, _, _ = data.partition(b"\n")
    if first_line != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: unrecognized header {first_line[:40]!r}")
    head, _, seal = data.rpartition(b"\ncrc32=")
    body = head + b"\n"
    if seal != b"%08x\n" % zlib.crc32(body):
        raise CheckpointError(f"{path}: checksum line missing or wrong")

    try:
        # a non-ASCII byte, or a number past int()'s digit limit, raises
        # ValueError; a short body reads as empty field lines
        lines = body.decode("ascii").split("\n") + ["", ""]
        fields = []
        for key, line in zip(("max_n", "n", "primes"), lines[1:4]):
            name, eq, value = line.partition("=")
            if name != key or eq != "=" or not value.isdigit():
                raise CheckpointError(f"{path}: bad field line {line!r}")
            fields.append(int(value))
    except ValueError as exc:
        raise CheckpointError(f"{path}: unreadable body: {exc}") from None
    max_n, n, count = fields
    if n > max_n:
        raise CheckpointError(f"{path}: position n={n} beyond max_n")
    if max_n != pool.max_n:
        raise CheckpointError(f"{path}: checkpoint scans to {max_n}, this scan to {pool.max_n}")
    if count != len(pool.primes):
        raise CheckpointError(f"{path}: pool has {count} primes, expected {len(pool.primes)}")
    state = seed_state(pool, n)
    # a wrong residue could make the filter reject a solution
    if data != _checkpoint_bytes(state, pool):
        raise CheckpointError(f"{path}: not the checkpoint this scan writes at n={n}")
    return state


# ---------------------------------------------------------------------------
# scanning


def _drop_event(kind: str, n: int, m: int | None, rejecting_prime: int | None) -> None:
    """The default event callback: ignore the event."""


def run(config: SearchConfig, on_event: EventCallback = _drop_event) -> SearchSummary:
    """Execute (or resume) a scan and return what this segment found.

    Events are delivered in ascending n: ("solution", n, m, None),
    ("survivor", n, None, q) with q the rejecting prime, or None when exact
    arithmetic settled n, ("unresolved", n, None, None), and ("checkpoint",
    n, None, None) just before a checkpoint at n is saved, once every
    event up to n is delivered. ShardError if a shard child fails or its
    residue at its lower cut is not the one reached from below; none of
    that child's range is settled then. StreamError if a piece's front
    leaves its packed stream, or if a scan run in one shard ends at a
    residue other than n! where it stops, by `seed_state`; that last
    segment is then neither settled nor checkpointed.
    """
    if config.resume and not config.checkpoint_path:
        raise ValueError("resume requires a checkpoint path")

    started = time.perf_counter()
    pool = build_prime_pool(config.max_n, config.pool_size)
    start, residue = (load_checkpoint(config.checkpoint_path, pool) if config.resume
                      else seed_state(pool, 0))
    stop = config.max_n if config.stop_n is None else min(config.stop_n, config.max_n)
    if stop < start:
        raise ValueError(f"stop_n={config.stop_n} lies below the scan's start n={start}")

    solutions: list[tuple[int, int]] = []
    unresolved: list[int] = []
    survivors = 0

    def settle_survivor(n: int) -> None:
        nonlocal survivors
        survivors += 1
        try:
            report = conditions.verify(n, certify=True)
        except CeilingError:
            unresolved.append(n)
            on_event("unresolved", n, None, None)
            return
        if report.is_solution:
            solutions.append((n, report.k + 1))
            on_event("solution", n, report.k + 1, None)
        else:
            on_event("survivor", n, None, report.rejecting_prime)

    pending: list[int] = []
    rejections: Counter[int] = Counter()

    def end_piece(hi: int, found: list[int], residue: int, counts: dict[int, int]) -> None:
        """Take the survivors, end residue and rejection counts of the
        piece of the scan ending at hi. A checkpoint segment that a shard
        cut splits is settled and checkpointed only once its last piece
        is in."""
        rejections.update(counts)
        pending.extend(found)
        if hi % CHECKPOINT_INTERVAL and hi != stop:
            return
        for n in pending:
            settle_survivor(n)
        pending.clear()
        # a checkpoint at max_n off the grid is never written
        if config.checkpoint_path and (hi % CHECKPOINT_INTERVAL == 0 or hi < config.max_n):
            # what the checkpoint covers goes to disk before it does
            on_event("checkpoint", hi, None, None)
            save_checkpoint(FactorialState(n=hi, residue=residue), pool,
                            config.checkpoint_path)

    bounds = _shard_bounds(start, stop, _shard_count(stop - start), pool.primes[-1])
    # priced on the shards that run: _shard_bounds may drop cuts
    tables = [nonresidue_bits(p)
              for p in pool.primes[:table_ranks(pool.primes, stop - start, len(bounds) - 1)]]
    children: list[_Child] = []
    restore = None
    try:
        if len(bounds) > 2:
            restore = _raise_on_sigterm()
            down = [down_bits(table, p) for table, p in zip(tables, pool.primes)]
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork_shard(pool, down, lo, hi))
            # every child holds the down set; this process never scans down
            del down
        lo = start
        for hi in _segment_ends(start, bounds[1]):
            record = scan_piece(pool, tables, lo, residue, hi)
            # A scan whose own pieces reach where it stops runs no child, so
            # no cut checks its stream: its end is checked against
            # `seed_state` there before that segment is out.
            if hi == stop and record[1] != seed_state(pool, hi).residue:
                raise StreamError(f"the scan's residue at its top n={hi} is not "
                                  f"{hi}! mod the pool primes")
            end_piece(hi, *record)
            lo, residue = hi, record[1]
        for child in children:
            for hi, record in child.pieces(residue):
                end_piece(hi, *record)
                residue = record[1]
            child.reap()
    finally:
        for child in children:
            child.close()
        if restore:
            restore()

    return SearchSummary(
        scanned_range=(max(2, start + 1), stop),
        resumed_from=start if config.resume else None,
        completed=stop == config.max_n,
        solutions=solutions,
        survivors=survivors,
        unresolved=unresolved,
        rejections_by_prime=dict(sorted(rejections.items())),
        wall_time_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# shards


def _shard_count(span: int) -> int:
    """One shard per core this process may run on, each at least
    _MIN_SHARD_SPAN long; one where the platform cannot fork, or where
    other threads run (a lock one of them holds would stay held in the
    child)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, span // _MIN_SHARD_SPAN))


def _shard_bounds(start: int, stop: int, count: int, top: int) -> list[int]:
    """[start, c_1, ..., stop]: shard k scans c_k + 1 .. c_{k+1}.

    The cuts may fall anywhere; they balance wall time. The tables are
    built before any shard starts, so they drop out of the balance. Shard
    0 scans up from `start`. Every later shard scans down from its top hi
    = c_{k+1}, after a start (`seed_state`) that multiplies the fewer
    factors of 2 .. hi and hi + 1 .. `top`, the last pool prime, each
    priced at _SEED_COST. Every shard costs t when c_1 = start + t and,
    counted down from c_count = stop, c_k = c_{k+1} - t + _SEED_COST *
    min(c_{k+1}, top - c_{k+1}). As t grows c_1 falls and start + t
    rises, so bisection finds the t where they meet. A cut that would not
    fall strictly between its neighbours is dropped, with its shard.
    """
    def cuts(t: float) -> list[float]:
        points = [stop]
        for _ in range(count - 1):
            hi = points[-1]
            points.append(hi - t + _SEED_COST * min(hi, top - hi))
        return points

    low, high = 0.0, float(stop - start + top)
    for _ in range(100):
        t = (low + high) / 2
        if cuts(t)[-1] > start + t:
            low = t
        else:
            high = t
    kept = [stop]
    for cut in map(round, cuts(t)[1:]):
        if start < cut < kept[-1]:
            kept.append(cut)
    return [start] + kept[::-1]


def _segment_ends(lo: int, hi: int) -> Iterator[int]:
    """The last n of each piece of lo + 1 .. hi: every checkpoint
    boundary inside, then hi."""
    while lo < hi:
        lo = min(hi, (lo // CHECKPOINT_INTERVAL + 1) * CHECKPOINT_INTERVAL)
        yield lo


def _fork_shard(pool: PrimePool, tables: list[bytes], lo: int, hi: int) -> "_Child":
    """Fork a shard child to scan lo + 1 .. hi with the down tables
    `tables`, which it inherits. One pipe carries its records to the
    parent."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _scan_shard(pool, tables, lo, hi, read_fd, write_fd)
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    return _Child(pid, open(read_fd, "rb"), lo, hi)


def _scan_shard(pool: PrimePool, tables: list[bytes], lo: int, hi: int,
                parent_fd: int, write_fd: int) -> NoReturn:
    """Body of a shard child: scan lo + 1 .. hi down from hi!, the
    `seed_state` at hi, with the inherited down tables as they are.

    Once the range is scanned, writes one marshal record per piece, top
    piece first, (survivors, n! mod the pool product at its top,
    rejection counts), then lo! mod the pool product or, if the scan
    raised, a one-line error message, into write_fd. The parent reads a child's records only once
    its own shard is done, so a child that wrote as it went would stall
    on a full pipe until then (64 KB holds about 160 records at max_n
    10**8). Ends with os._exit, so it never returns or raises into the
    caller's stack and never flushes stdio buffers inherited from the
    parent.
    """
    code = 1
    try:
        os.close(parent_fd)
        records: list[object] = []
        try:
            residue = seed_state(pool, hi).residue
            edges = [lo, *_segment_ends(lo, hi)][::-1]
            for top, bottom in zip(edges, edges[1:]):
                survivors, below, counts = scan_piece(pool, tables, top, residue, bottom)
                # the residue a checkpoint at the piece's top needs
                records.append((survivors, residue, counts))
                residue = below
            # lo!, reached down from hi, for the parent to check at the cut
            records.append(residue)
            code = 0
        except Exception as exc:
            records.append(" ".join(f"{type(exc).__name__}: {exc}".split()))
        with open(write_fd, "wb") as pipe:
            for record in records:
                marshal.dump(record, pipe)
    finally:
        os._exit(code)


def _raise_on_sigterm() -> "Callable[[], None] | None":
    """Make SIGTERM raise SystemExit, so that `run` kills and reaps its
    children on the way out instead of leaving them scanning; returns
    what undoes it. Only the default action is replaced: it would end the
    process without running `run`'s cleanup."""
    import signal  # not at the top: only a sharded run needs it

    if signal.getsignal(signal.SIGTERM) != signal.SIG_DFL:
        return None

    def terminate(signum: int, frame: object) -> NoReturn:
        # a second SIGTERM must not cut the cleanup short
        signal.signal(signum, signal.SIG_IGN)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    return lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)


class _Child:
    """A shard child as its parent sees it: pid and the read end of the
    pipe its records come on."""

    def __init__(self, pid: int, pipe: BinaryIO, lo: int, hi: int) -> None:
        self.pid: int | None = pid
        self.pipe = pipe
        self.lo, self.hi = lo, hi

    def _fail(self, reason: str) -> NoReturn:
        raise ShardError(f"scan shard n={self.lo + 1}..{self.hi}: {reason}")

    def receive(self) -> "tuple[list[int], int, dict[int, int]] | int":
        """The child's next record, a piece or, last, its residue at lo;
        ShardError if it failed or died first."""
        try:
            record = marshal.load(self.pipe)
        except (EOFError, ValueError, TypeError):
            code = os.waitstatus_to_exitcode(self.reap())
            self._fail((f"killed by signal {-code}" if code < 0 else
                        f"exited with status {code}") + " before sending its result")
        if isinstance(record, str):
            self._fail(record)
        return record

    def pieces(self, below: int) -> Iterator[tuple[int, "tuple[list[int], int, dict[int, int]]"]]:
        """(top, record) for each piece of the child's range, ascending,
        once the child's residue at lo, reached down from its top, is
        `below`, lo! reached from below; ShardError if not. The records
        come top first, so all of them are read before the first is
        yielded."""
        tops = list(_segment_ends(self.lo, self.hi))
        records = [self.receive() for _ in tops]
        if self.receive() != below:
            self._fail(f"its residue at n={self.lo} disagrees with the one from below")
        return zip(tops, reversed(records))

    def reap(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status

    def close(self) -> None:
        """Kill and reap the child unless it was reaped already."""
        if self.pid is not None:
            import signal  # not at the top: only a failed or interrupted run needs it

            os.kill(self.pid, signal.SIGKILL)
            self.reap()
        self.pipe.close()
