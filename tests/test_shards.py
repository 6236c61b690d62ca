"""Range shards: a scan cut into forked children reports, checkpoints and
counts exactly what a one-process scan does, and fails as a whole."""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import threading
import time

import pytest

from brocard import factorial_engine, search_engine
from brocard.cli_reporting import ReportWriter, dispatch
from brocard.factorial_engine import build_prime_pool
from brocard.qr_filter import table_ranks
from brocard.search_engine import SearchConfig, ShardError, StreamError, run

_SAVE = search_engine.save_checkpoint
_FORK = search_engine._fork_shard
_SCAN_PIECE = search_engine.scan_piece


def _force_shards(monkeypatch, count):
    """Let any span split, over `count` cores."""
    monkeypatch.setattr(search_engine, "_MIN_SHARD_SPAN", 1)
    monkeypatch.setattr(search_engine.os, "sched_getaffinity", lambda pid: set(range(count)))


def _record(monkeypatch):
    """A log that fills with the bytes of each checkpoint written, in write
    order, and a list of the pid of each child forked."""
    log, pids = [], []

    def save(state, pool, path):
        _SAVE(state, pool, path)
        with open(path, "rb") as fh:
            log.append(fh.read())

    def fork(*args):
        child = _FORK(*args)
        pids.append(child.pid)
        return child

    monkeypatch.setattr(search_engine, "save_checkpoint", save)
    monkeypatch.setattr(search_engine, "_fork_shard", fork)
    return log, pids


def _scan(monkeypatch, config, shards):
    """The summary, and every event and checkpoint in the order they came."""
    _force_shards(monkeypatch, shards)
    log, pids = _record(monkeypatch)
    summary = run(config, on_event=lambda *event: log.append(event))
    assert len(pids) == shards - 1
    return summary._replace(wall_time_s=0.0), log


def _report_of(path, monkeypatch, config, shards):
    """Scan, or resume, into the report at path as `search` does; the
    bytes of the report and of the checkpoint the scan leaves."""
    _force_shards(monkeypatch, shards)
    writer = ReportWriter.open(str(path), append=config.resume)
    run(config, on_event=writer.emit_event)
    writer.write_summary(config.max_n - 1)
    writer.close()
    with open(config.checkpoint_path, "rb") as fh:
        return path.read_bytes(), fh.read()


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("size,max_n", [(1, 900), (2, 2000), (3, 2000), (8, 3000),
                                        (48, 3000)])
def test_shards_match_one_process(tmp_path, monkeypatch, size, max_n):
    # every SearchSummary field (rejections_by_prime included), and every
    # event and the bytes of every checkpoint in one stream, for 2, 3 and 4
    # shards against one: with and without checkpoints, halted by stop_n
    # (far below max_n too, where every child starts up from 1), and
    # resumed from a checkpoint written mid-run
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 97)
    ck = str(tmp_path / "scan.ck")
    mid = str(tmp_path / "mid.ck")
    run(SearchConfig(max_n=max_n, pool_size=size, checkpoint_path=mid,
                     stop_n=max_n // 4 + 3))
    configs = {
        "plain": SearchConfig(max_n=max_n, pool_size=size),
        "checkpointed": SearchConfig(max_n=max_n, pool_size=size, checkpoint_path=ck),
        "stopped": SearchConfig(max_n=max_n, pool_size=size, checkpoint_path=ck,
                                stop_n=max_n * 3 // 4 + 5),
        "stopped low": SearchConfig(max_n=max_n, pool_size=size, checkpoint_path=ck,
                                    stop_n=max_n // 3),
        "resumed": SearchConfig(max_n=max_n, pool_size=size, checkpoint_path=ck,
                                resume=True),
    }
    for name, config in configs.items():
        results = []
        for shards in (1, 2, 3, 4):
            if config.resume:
                shutil.copyfile(mid, ck)
            results.append(_scan(monkeypatch, config, shards))
        one, *sharded = results
        if config.checkpoint_path:
            assert any(isinstance(entry, bytes) for entry in one[1]), name
        for shards, got in zip((2, 3, 4), sharded):
            assert got == one, (name, shards)


@pytest.mark.parametrize("shards", [1, 2])
def test_scan_without_checkpoint_reports_on_the_grid(monkeypatch, shards):
    # a scan with no checkpoint path is cut on the same grid and settles
    # each segment as it ends: the solutions are out before the kernel
    # scans past the first boundary, and no checkpoint is saved
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 100)
    _force_shards(monkeypatch, shards)
    log, saved = [], []
    scan_piece = search_engine.scan_piece

    def logged(pool, tables, lo, residue, hi):
        log.append(("scan_piece", hi))
        return scan_piece(pool, tables, lo, residue, hi)

    monkeypatch.setattr(search_engine, "scan_piece", logged)
    monkeypatch.setattr(search_engine, "save_checkpoint", lambda *args: saved.append(args))
    summary = run(SearchConfig(max_n=3000), on_event=lambda *event: log.append(event[:2]))
    assert summary.solutions == [(4, 5), (5, 11), (7, 71)]
    past_first = next(i for i, (what, n) in enumerate(log) if what == "scan_piece" and n > 100)
    assert {("solution", 4), ("solution", 5), ("solution", 7)} <= set(log[:past_first])
    assert log[0] == ("scan_piece", 100) and saved == []


@pytest.mark.parametrize("size", [1, 48])
def test_shard_starts_take_the_cheaper_side(tmp_path, monkeypatch, size):
    # shard 0 starts from 0!, every child from n! at its top, counted up
    # from 1 or down from the last pool prime, whichever multiplies fewer
    # factors: no start multiplies more than min(n, top - n), and with 2
    # shards at max_n the child multiplies the top - 1 - stop factors
    # stop + 1 .. top - 1. The bytes are a one-process scan's, run to
    # max_n (3001 is prime, so the last child's first n is p - 1 for the
    # first pool prime) and stopped short of it
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 97)
    top = build_prime_pool(3000, size).primes[-1]
    log = tmp_path / "starts"
    seed_state, times_range = search_engine.seed_state, factorial_engine._times_range
    factors = []

    def counted(packed, a, b, modulus):
        factors.append(max(0, b - a))
        return times_range(packed, a, b, modulus)

    def logged(pool, n):
        # a child's start is logged to a file, since it runs in another process
        factors.clear()
        state = seed_state(pool, n)
        with open(log, "a") as fh:
            fh.write(f"{n} {sum(factors)}\n")
        return state

    monkeypatch.setattr(factorial_engine, "_times_range", counted)
    monkeypatch.setattr(search_engine, "seed_state", logged)
    for stop_n in (None, 2345):
        stop = stop_n or 3000
        config = SearchConfig(max_n=3000, pool_size=size, stop_n=stop_n,
                              checkpoint_path=str(tmp_path / "scan.ck"))
        one = _scan(monkeypatch, config, 1)
        for shards in (2, 3, 4):
            log.unlink()
            assert _scan(monkeypatch, config, shards) == one, (stop_n, shards)
            starts = dict(map(int, line.split()) for line in log.read_text().splitlines())
            assert len(starts) == shards and starts[0] == 0 and stop in starts
            assert all(f <= min(n, top - n) for n, f in starts.items()), starts
            if shards == 2 and stop_n is None:
                assert starts[stop] == top - 1 - stop


def test_shard_count_follows_cores_and_span(monkeypatch):
    monkeypatch.setattr(search_engine.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    span = search_engine._MIN_SHARD_SPAN
    assert search_engine._shard_count(3 * span + 1) == 3
    assert search_engine._shard_count(10 * span) == 4
    # the settle (3 * 10**4 n) and resume (10**4 n) shapes never shard
    assert search_engine._shard_count(30_000) == 1
    assert search_engine._shard_count(10_000) == 1
    # fork is unsafe while another thread may hold a lock
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert search_engine._shard_count(10 * span) == 1
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    # without an affinity mask, every core counts
    monkeypatch.delattr(search_engine.os, "sched_getaffinity")
    monkeypatch.setattr(search_engine.os, "cpu_count", lambda: 3)
    assert search_engine._shard_count(10 * span) == 3
    monkeypatch.setattr(search_engine.os, "cpu_count", lambda: None)
    assert search_engine._shard_count(10 * span) == 1
    monkeypatch.delattr(search_engine.os, "fork")
    assert search_engine._shard_count(10 * span) == 1


def test_shard_bounds_balance_seeding_off_the_grid():
    seed = search_engine._SEED_COST
    for start, stop, count, top in [(0, 1_000_123, 2, 1_000_737), (250, 10_000, 4, 10_103),
                                    (40_000, 700_000, 3, 700_001), (0, 1_000_123, 4, 1_000_737),
                                    (990_000, 1_000_123, 2, 1_000_737), (0, 600_000, 2, 1_000_737),
                                    (0, 300_000, 2, 1_000_619), (0, 300_000, 3, 1_000_619),
                                    (0, 700_000, 4, 1_000_619), (100_000, 500_000, 2, 1_000_619)]:
        bounds = search_engine._shard_bounds(start, stop, count, top)
        assert bounds[0] == start and bounds[-1] == stop and len(bounds) == count + 1
        assert bounds == sorted(set(bounds))
        # shard 0 scans on from start, and every later shard scans down
        # from its top hi after a start of min(hi, top - hi) factors, up
        # from 1 or down from top: every shard costs what shard 0 does, up
        # to rounding
        costs = [hi - lo + seed * min(hi, top - hi) * (k > 0)
                 for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        assert max(costs) - min(costs) < 2
        # no child gets as many n as shard 0, which starts for free; of the
        # children priced from the top, the nearer its top is to the pool's,
        # the more n a child gets
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        assert max(sizes[1:]) < sizes[0]
        high = [size for size, hi in zip(sizes[1:], bounds[2:]) if hi > top - hi]
        assert high == sorted(high)
    # with 2 shards the 10**6 scan is cut near its middle, where the
    # balance falls, not on the 10**5 grid, and where the cut fell when
    # only the last shard scanned down; so are the benchmark's scan and
    # resume shapes
    assert search_engine._shard_bounds(0, 1_000_123, 2, 1_000_737) == [0, 500_117, 1_000_123]
    assert search_engine._shard_bounds(0, 1_000_007, 2, 1_000_619) == [0, 500_059, 1_000_007]
    assert search_engine._shard_bounds(990_007, 1_000_007, 2, 1_000_619) == [
        990_007, 995_062, 1_000_007]
    # stopped at 3 * 10**5 of 10**6 the child starts up from 1, 3 * 10**5
    # factors, so the cut falls at (300000 + 0.18 * 300000) / 2, not at
    # the 213056 that a start down from the top would give
    assert search_engine._shard_bounds(0, 300_000, 2, 1_000_619) == [0, 177_000, 300_000]
    # a span too short for every shard keeps the cuts that fall strictly
    # inside it
    assert search_engine._shard_bounds(0, 2, 4, 2) == [0, 1, 2]
    assert search_engine._shard_bounds(7, 7, 3, 11) == [7, 7]


def _checkpoint_positions(log):
    return [int(entry.split(b"\nn=")[1].split(b"\n")[0]) for entry in log
            if isinstance(entry, bytes)]


@pytest.mark.parametrize("stop_n,written", [
    (None, list(range(100, 3001, 100))),
    (2950, list(range(100, 2901, 100)) + [2950]),
], ids=["to max_n", "stopped off the grid"])
def test_checkpoints_only_on_the_grid_or_at_stop(tmp_path, monkeypatch, stop_n, written):
    # the 2- and 4-shard cuts fall inside checkpoint segments; no checkpoint
    # is written there
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 100)
    config = SearchConfig(max_n=3000, pool_size=3, checkpoint_path=str(tmp_path / "scan.ck"),
                          stop_n=stop_n)
    top = build_prime_pool(3000, 3).primes[-1]
    for shards in (2, 4):
        cuts = search_engine._shard_bounds(0, stop_n or 3000, shards, top)[1:-1]
        assert len(cuts) == shards - 1 and all(cut % 100 for cut in cuts)
        _, log = _scan(monkeypatch, config, shards)
        assert _checkpoint_positions(log) == written


def test_rank_shares_halve_with_rank(monkeypatch):
    # The pool prime at rank k sees the n that every earlier prime passed,
    # about 2**-k of them, and rejects about half. A table lost or blanked
    # in a forked shard, or built to reject more or less than the
    # nonresidues, shifts these shares; a comparison with a one-process run
    # does not notice a fault that both runs share.
    _force_shards(monkeypatch, 2)
    summary = run(SearchConfig(max_n=300_000))
    scanned = 300_000 - 1
    pool = build_prime_pool(300_000, 48)
    assert table_ranks(pool.primes, scanned + 1, 2) == 9
    for k, p in enumerate(pool.primes[:9]):
        share = 2.0 ** -(k + 1)
        expected = scanned * share
        sigma = math.sqrt(scanned * share * (1 - share))
        assert abs(summary.rejections_by_prime.get(p, 0) - expected) < 5 * sigma, (k, p)


def test_run_prices_tables_per_shard(tmp_path, monkeypatch):
    # the scan builds its tables before it forks, for the ranks that pay on
    # one shard's share of the span: fewer on 2 shards than on 1
    built = []
    make = search_engine.nonresidue_bits
    monkeypatch.setattr(search_engine, "nonresidue_bits", lambda p: built.append(p) or make(p))
    primes = build_prime_pool(3000, 48).primes
    for shards, ranks in [(1, 10), (2, 9)]:
        built.clear()
        _scan(monkeypatch, SearchConfig(max_n=3000), shards)
        assert table_ranks(primes, 3000, shards) == ranks
        assert built == list(primes[:ranks])
    # priced on the shards that run: 4 cores would take 4 shards of these
    # 61 n, but every cut falls outside the range, so one shard runs and
    # its tables are a one-shard scan's
    ck = str(tmp_path / "scan.ck")
    run(SearchConfig(max_n=3000, checkpoint_path=ck, stop_n=300))
    _force_shards(monkeypatch, 4)
    _, pids = _record(monkeypatch)
    built.clear()
    run(SearchConfig(max_n=3000, checkpoint_path=ck, resume=True, stop_n=361))
    assert pids == [] and search_engine._shard_count(61) == 4
    assert table_ranks(primes, 61, 4) == 2 and table_ranks(primes, 61, 1) == 4
    assert built == list(primes[:4])


def test_down_tables_are_derived_once_before_the_fork(tmp_path, monkeypatch):
    # the parent derives one down set before it forks and every child scans
    # with it as inherited: each tabled rank is derived exactly once,
    # whatever the shard count, and never in a child, and a one-shard scan,
    # which never scans down, derives none. The calls are logged to a file,
    # since a child's would run in another process.
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 97)
    log = tmp_path / "derived"
    down_bits = search_engine.down_bits

    def logged(table, p):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {p}\n")
        return down_bits(table, p)

    monkeypatch.setattr(search_engine, "down_bits", logged)
    primes = build_prime_pool(3000, 48).primes
    config = SearchConfig(max_n=3000, checkpoint_path=str(tmp_path / "scan.ck"))
    one = _scan(monkeypatch, config, 1)
    assert not log.exists()
    for shards in (2, 3, 4):
        assert _scan(monkeypatch, config, shards) == one, shards
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        ranks = table_ranks(primes, 3000, shards)
        assert ranks and calls == [(os.getpid(), p) for p in primes[:ranks]], shards
        log.unlink()


def test_child_scans_its_range_before_the_parent_reads(tmp_path, monkeypatch):
    # The parent reads a child's records only after its own shard. A child
    # with more records than a pipe holds (64 KB; here about 1500 pieces
    # of one n) must still scan its whole range meanwhile, not stall on a
    # full pipe: the parent's last piece waits for the child's.
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 1)
    config = SearchConfig(max_n=3000)
    _, clean = _scan(monkeypatch, config, 1)
    cut = search_engine._shard_bounds(0, 3000, 2, build_prime_pool(3000, 48).primes[-1])[1]
    parent = os.getpid()
    done = tmp_path / "child-done"
    waited = []
    scan_piece = search_engine.scan_piece

    def meet_at_the_cut(pool, tables, start, residue, end):
        if os.getpid() == parent and end == cut:
            deadline = time.monotonic() + 30
            while not done.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            waited.append(done.exists())
        record = scan_piece(pool, tables, start, residue, end)
        if os.getpid() != parent and end == cut:
            done.touch()
        return record

    monkeypatch.setattr(search_engine, "scan_piece", meet_at_the_cut)
    _, log = _scan(monkeypatch, config, 2)
    assert waited == [True]
    assert log == clean


def _cli_search(*extra):
    args = ["search", "--max-n", "2000", "--primes", "2", *extra]
    return dispatch(args)


@pytest.mark.parametrize("shards", [1, 2])
def test_report_reaches_the_disk_before_each_checkpoint(tmp_path, monkeypatch, shards):
    # After an OS crash a checkpoint must not claim an n whose report lines
    # were lost: every checkpoint's rename follows an fsync of the report
    # made once its last line was written.
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 100)
    _force_shards(monkeypatch, shards)
    report, ck = tmp_path / "report.jsonl", str(tmp_path / "scan.ck")
    log = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        fsync(fd)
        log.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))

    def logged_replace(src, dst):
        replace(src, dst)
        log.append(("replace", dst, report.stat().st_size))

    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    assert _cli_search("--checkpoint", ck, "--report", str(report)) == 0
    inode = report.stat().st_ino
    synced = None
    renames = []
    for what, target, size in log:
        if what == "fsync" and target == inode:
            synced = size
        elif what == "replace" and target == ck:
            renames.append(size)
            assert synced == size, (len(renames), synced, size)
    # 20 checkpoints, each after more survivor lines
    assert len(renames) == 20 and len(set(renames)) == 20


def test_cli_report_and_checkpoint_bytes_match_one_process(tmp_path, monkeypatch, capsys):
    # to a report file and to stdout, with a checkpoint every 250 n
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 250)
    outputs = {}
    for shards in (1, 3):
        _force_shards(monkeypatch, shards)
        checkpoints, pids = _record(monkeypatch)
        report = tmp_path / f"{shards}.jsonl"
        ck = str(tmp_path / f"{shards}.ck")
        assert _cli_search("--checkpoint", ck, "--report", str(report)) == 0
        assert _cli_search() == 0
        assert len(pids) == 2 * (shards - 1)
        outputs[shards] = (report.read_bytes(), capsys.readouterr().out, checkpoints)
    assert outputs[3] == outputs[1]
    assert outputs[1][0].decode("ascii") == outputs[1][1]
    assert len(outputs[1][2]) == 8


# ---------------------------------------------------------------------------
# failures


def _fail_in_child(monkeypatch, at, how):
    """The kernel raises (or the process kills itself, or hangs) in any
    shard child asked to scan a piece that holds an n below `at`."""
    parent = os.getpid()
    scan_piece = search_engine.scan_piece

    def failing(pool, tables, start, residue, end):
        if os.getpid() != parent and min(start, end) + 1 < at:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "hang":
                time.sleep(60)
            raise RuntimeError("injected\nfault")
        return scan_piece(pool, tables, start, residue, end)

    monkeypatch.setattr(search_engine, "scan_piece", failing)


# The cut of a 3000-n scan over 2 pool primes into 2 shards, and the end
# of the segment of the 100-n checkpoint grid that it splits: the last
# piece of the child, which scans down from 3000.
_CUT = search_engine._shard_bounds(0, 3000, 2, build_prime_pool(3000, 2).primes[-1])[1]
_SPLIT_END = _CUT // 100 * 100 + 100


def _out_before_the_cut(clean):
    """What a 2-shard scan whose child fails leaves of the one-process
    scan's log `clean`: every event and checkpoint up to the last
    checkpoint below the cut, then the events of shard 0's part of the
    segment the cut splits, which a resume from that checkpoint delivers
    again."""
    last_checkpoint = _CUT // 100 * 100
    checkpoints = [entry for entry in clean if isinstance(entry, bytes)]
    upto = clean.index(checkpoints[last_checkpoint // 100 - 1]) + 1
    assert _checkpoint_positions(clean[:upto])[-1] == last_checkpoint
    provisional = [event for event in clean[upto:]
                   if not isinstance(event, bytes) and event[1] <= _CUT]
    assert provisional and clean[upto + len(provisional)][1] > _CUT
    return clean[:upto] + provisional


def test_a_child_whose_residue_drifts_fails_at_its_cut(tmp_path, monkeypatch):
    # The child's residue at its lower cut, reached down from its top, is
    # checked against shard 0's, reached up from 1. A drifting packed
    # stream in one down piece (its end residue off by one factor) fails
    # the scan before any of the child's range is settled.
    ck = str(tmp_path / "scan.ck")
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 100)
    config = SearchConfig(max_n=3000, pool_size=2, checkpoint_path=ck)
    _, clean = _scan(monkeypatch, config, 1)
    pool = build_prime_pool(3000, 2)
    modulus = math.prod(pool.primes)
    parent = os.getpid()
    scan_piece = search_engine.scan_piece

    def drifting(pool, tables, start, residue, end):
        survivors, below, counts = scan_piece(pool, tables, start, residue, end)
        if os.getpid() != parent and start == 3000:
            below = below * 2 % modulus
        return survivors, below, counts

    _force_shards(monkeypatch, 2)
    log, pids = _record(monkeypatch)
    monkeypatch.setattr(search_engine, "scan_piece", drifting)
    with pytest.raises(ShardError) as info:
        run(config, on_event=lambda *event: log.append(event))
    assert str(info.value) == (f"scan shard n={_CUT + 1}..3000: its residue at n={_CUT} "
                               "disagrees with the one from below")
    _assert_reaped(pids)
    # nothing of the child's range is out, as with a child that fails
    assert log == _out_before_the_cut(clean)


def _drift_one_shard_at(monkeypatch, stop):
    """A one-shard scan over 2 pool primes to 3000, on a 1000-n grid, whose
    piece ending at `stop` ends off by one factor; the pool."""
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 1000)
    _force_shards(monkeypatch, 1)
    pool = build_prime_pool(3000, 2)
    modulus = math.prod(pool.primes)
    scan_piece = search_engine.scan_piece

    def drifting(pool, tables, start, residue, end):
        survivors, below, counts = scan_piece(pool, tables, start, residue, end)
        return survivors, below * 2 % modulus if end == stop else below, counts

    monkeypatch.setattr(search_engine, "scan_piece", drifting)
    return pool


def test_a_one_shard_scan_whose_top_drifts_exits_2(tmp_path, monkeypatch, capsys):
    # A scan with no child meets no cut. Its last residue is checked
    # against Wilson's theorem at max_n before that segment is settled or
    # checkpointed, so a drift in its last piece writes no summary and no
    # checkpoint past the one before.
    pool = _drift_one_shard_at(monkeypatch, 3000)
    report, ck = tmp_path / "scan.jsonl", str(tmp_path / "scan.ck")
    assert dispatch(["search", "--max-n", "3000", "--primes", "2", "--checkpoint", ck,
                     "--report", str(report)]) == 2
    assert capsys.readouterr().err == ("search: the scan's residue at its top n=3000 is "
                                       "not 3000! mod the pool primes\n")
    lines = [json.loads(raw) for raw in report.read_text().splitlines()]
    assert lines and all(line["kind"] != "summary" and line["n"] <= 2000 for line in lines)
    assert search_engine.load_checkpoint(ck, pool).n == 2000


def test_a_one_shard_scan_is_checked_where_it_stops(tmp_path, monkeypatch):
    # stopped below max_n, off the grid, the scan is checked against
    # seed_state at its stop, before the checkpoint there is written
    pool = _drift_one_shard_at(monkeypatch, 2500)
    ck = str(tmp_path / "scan.ck")
    with pytest.raises(StreamError, match="^the scan's residue at its top n=2500 is not "
                       "2500! mod the pool primes$"):
        run(SearchConfig(max_n=3000, pool_size=2, checkpoint_path=ck, stop_n=2500))
    assert search_engine.load_checkpoint(ck, pool).n == 2000


@pytest.mark.parametrize("how", ["raise", "kill"])
@pytest.mark.parametrize("at", [3000, _SPLIT_END], ids=["first piece", "last piece"])
def test_failed_child_stops_at_last_finished_segment(tmp_path, monkeypatch, how, at):
    ck = str(tmp_path / "scan.ck")
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 100)
    config = SearchConfig(max_n=3000, pool_size=2, checkpoint_path=ck)
    clean_report = _report_of(tmp_path / "clean.jsonl", monkeypatch, config, 1)
    _, clean = _scan(monkeypatch, config, 1)

    _force_shards(monkeypatch, 2)
    log, pids = _record(monkeypatch)
    _fail_in_child(monkeypatch, at, how)
    report = tmp_path / "scan.jsonl"
    writer = ReportWriter.open(str(report))

    def on_event(*event):
        log.append(event)
        writer.emit_event(*event)

    with pytest.raises(ShardError) as info:
        run(config, on_event=on_event)
    writer.close()
    assert str(info.value) == f"scan shard n={_CUT + 1}..3000: " + {
        "raise": "RuntimeError: injected fault",
        "kill": "killed by signal 9 before sending its result",
    }[how]
    _assert_reaped(pids)
    # The child scans down, so its range comes out only once its last
    # piece, the one at the cut, is in: whether it fails at its first
    # piece or its last, nothing of its range is out. What shard 0 found
    # in the first half of the segment the cut splits is out, past the
    # last checkpoint, so a resume from there cuts it from the report and
    # ends with the bytes of the uninterrupted scan.
    assert log == _out_before_the_cut(clean)
    monkeypatch.setattr(search_engine, "scan_piece", _SCAN_PIECE)
    assert _report_of(report, monkeypatch, config._replace(resume=True), 2) == clean_report


def test_cli_exits_2_on_a_failed_child_and_resumes_exactly(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 100)
    clean = tmp_path / "clean.jsonl"
    assert _cli_search("--report", str(clean)) == 0
    capsys.readouterr()

    _force_shards(monkeypatch, 2)
    report, ck = tmp_path / "report.jsonl", str(tmp_path / "scan.ck")
    with monkeypatch.context() as m:
        _fail_in_child(m, 3000, "raise")
        code = _cli_search("--checkpoint", ck, "--report", str(report))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("search: scan shard n=") and err.count("\n") == 1
    # the report stops where the checkpoint does, so a resume completes it
    # byte for byte
    assert _cli_search("--checkpoint", ck, "--report", str(report),
                       "--resume") == 0
    assert report.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize("shards", [1, 2])
def test_a_search_killed_before_its_checkpoint_resumes_exactly(tmp_path, monkeypatch, capsys,
                                                               shards):
    # killed once the lines of the grid segment past the shard cut are
    # out, but before its checkpoint: a resume cuts those lines, scans
    # the segment again and ends with the bytes of the uninterrupted scan
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 5000)
    scan = ["search", "--max-n", "20000", "--primes", "8"]
    clean, clean_ck = tmp_path / "clean.jsonl", tmp_path / "clean.ck"
    assert dispatch(scan + ["--checkpoint", str(clean_ck), "--report", str(clean)]) == 0
    cut = search_engine._shard_bounds(0, 20000, 2, build_prime_pool(20000, 8).primes[-1])[1]
    killed_at = cut // 5000 * 5000 + 5000

    def killed(state, pool, path):
        if state.n == killed_at:
            raise KeyboardInterrupt
        _SAVE(state, pool, path)

    _force_shards(monkeypatch, shards)
    report, ck = tmp_path / "scan.jsonl", tmp_path / "scan.ck"
    scan += ["--checkpoint", str(ck), "--report", str(report)]
    with monkeypatch.context() as m:
        m.setattr(search_engine, "save_checkpoint", killed)
        with pytest.raises(KeyboardInterrupt):
            dispatch(scan)
    held = report.read_bytes()
    replays = [raw for raw in held.splitlines() if json.loads(raw)["n"] > killed_at - 5000]
    assert len(replays) > 10 and clean.read_bytes().startswith(held)
    capsys.readouterr()
    assert dispatch(scan + ["--resume"]) == 0
    assert capsys.readouterr().err.startswith(
        f"search: {report}: cut {len(replays)} line(s) past the checkpoint at "
        f"n={killed_at - 5000}\nscan {killed_at - 4999}..20000 done: ")
    assert (report.read_bytes(), ck.read_bytes()) == (clean.read_bytes(), clean_ck.read_bytes())


def test_interrupt_in_parent_kills_and_reaps_children(tmp_path, monkeypatch):
    # the children hang, so only a kill ends them in time; on a 100-n
    # grid shard 0 delivers its events past n = 500 before its cut
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 100)
    _force_shards(monkeypatch, 4)
    _, pids = _record(monkeypatch)
    _fail_in_child(monkeypatch, 3000, "hang")
    started = time.monotonic()

    def interrupt(kind, n, m, q):
        if n > 500:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run(SearchConfig(max_n=3000, pool_size=2), on_event=interrupt)
    assert len(pids) == 3
    _assert_reaped(pids)
    assert time.monotonic() - started < 30


def test_sigterm_in_parent_kills_and_reaps_children(monkeypatch):
    # SIGTERM's default action would end the parent at once and leave the
    # children scanning; while they run, it raises SystemExit instead, so
    # the parent kills and reaps them, then the default comes back
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 100)
    _force_shards(monkeypatch, 4)
    _, pids = _record(monkeypatch)
    _fail_in_child(monkeypatch, 3000, "hang")
    started = time.monotonic()

    def terminate(kind, n, m, q):
        if n > 500:
            # under the default action the signal would end the test run
            assert signal.getsignal(signal.SIGTERM) != signal.SIG_DFL
            os.kill(os.getpid(), signal.SIGTERM)

    with pytest.raises(SystemExit) as info:
        run(SearchConfig(max_n=3000, pool_size=2), on_event=terminate)
    assert info.value.code == 128 + signal.SIGTERM
    assert len(pids) == 3
    _assert_reaped(pids)
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    assert time.monotonic() - started < 30


def test_a_failed_fork_closes_its_pipe_and_reaps_the_children_before(monkeypatch):
    # the second of three shards forks, the third's fork fails: the error
    # comes out, the failed fork's pipe is closed at both ends, and the
    # child already running is killed and reaped
    _force_shards(monkeypatch, 3)
    _, pids = _record(monkeypatch)
    pipes, pipe, fork = [], os.pipe, os.fork

    def logged_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def failing_fork():
        if len(pipes) > 1:
            raise OSError("injected fork failure")
        return fork()

    monkeypatch.setattr(search_engine.os, "pipe", logged_pipe)
    monkeypatch.setattr(search_engine.os, "fork", failing_fork)
    with pytest.raises(OSError, match="^injected fork failure$"):
        run(SearchConfig(max_n=3000, pool_size=2))
    assert len(pids) == 1 and len(pipes) == 2
    _assert_reaped(pids)
    for fd in pipes[1]:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_sigterm_handler_already_installed_is_left_in_place():
    # only the default action is replaced; a handler someone installed
    # stays, and there is nothing to undo
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        assert search_engine._raise_on_sigterm() is None
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_a_second_sigterm_cannot_cut_the_cleanup_short():
    # the handler ignores SIGTERM before it raises, so a second TERM that
    # arrives while `run` kills and reaps its children cannot end the
    # process halfway through
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    try:
        assert search_engine._raise_on_sigterm() is not None
        handler = signal.getsignal(signal.SIGTERM)
        with pytest.raises(SystemExit) as info:
            handler(signal.SIGTERM, None)
        assert info.value.code == 143
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_IGN
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
