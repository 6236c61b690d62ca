"""Range shards: a scan cut into forked children reports, checkpoints and
counts exactly what a one-process scan does, and fails as a whole."""

from __future__ import annotations

import functools
import os
import shutil
import signal
import threading
import time

import pytest

from brocard import cli_reporting, search_engine
from brocard.cli_reporting import dispatch
from brocard.qr_filter import ResidueFilter
from brocard.search_engine import SearchConfig, ShardError, run

_SAVE = search_engine.save_checkpoint
_FORK = search_engine._fork_shard


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
    summary.wall_time_s = 0.0
    return summary, log


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
    # shards against one: with and without checkpoints, halted by stop_n,
    # and resumed from a checkpoint written mid-run
    ck = str(tmp_path / "scan.ck")
    mid = str(tmp_path / "mid.ck")
    run(SearchConfig(max_n=max_n, pool_size=size, checkpoint_path=mid,
                     checkpoint_interval=97, stop_n=max_n // 4 + 3))
    configs = {
        "plain": SearchConfig(max_n=max_n, pool_size=size),
        "checkpointed": SearchConfig(max_n=max_n, pool_size=size, checkpoint_path=ck,
                                     checkpoint_interval=97),
        "stopped": SearchConfig(max_n=max_n, pool_size=size, checkpoint_path=ck,
                                checkpoint_interval=97, stop_n=max_n * 3 // 4 + 5),
        "resumed": SearchConfig(max_n=max_n, pool_size=size, checkpoint_path=ck,
                                checkpoint_interval=97, resume=True),
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
    monkeypatch.delattr(search_engine.os, "fork")
    assert search_engine._shard_count(10 * span) == 1


def test_shard_bounds_cut_at_checkpoint_boundaries():
    assert search_engine._shard_bounds(0, 1_000_123, 2, 100_000) == [0, 500_000, 1_000_123]
    bounds = search_engine._shard_bounds(250, 10_000, 4, 100)
    assert bounds[0] == 250 and bounds[-1] == 10_000 and len(bounds) == 5
    assert bounds == sorted(set(bounds))
    assert all(cut % 100 == 0 for cut in bounds[1:-1])
    # later shards pay for seeding their start, so they get fewer n
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    assert sizes == sorted(sizes, reverse=True)
    # a grid coarser than the span leaves nowhere to cut
    assert search_engine._shard_bounds(0, 5000, 4, 10_000) == [0, 5000]


def _cli_search(*extra):
    args = ["search", "--max-n", "2000", "--primes", "2", *extra]
    return dispatch(args)


def test_cli_report_and_checkpoint_bytes_match_one_process(tmp_path, monkeypatch, capsys):
    # to a report file and to stdout, with a checkpoint every 250 n
    monkeypatch.setattr(cli_reporting, "SearchConfig",
                        functools.partial(SearchConfig, checkpoint_interval=250))
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
    shard child asked to scan up to `at` or beyond."""
    parent = os.getpid()
    scan_to = ResidueFilter.scan_to

    def failing(self, hi, on_survivor):
        if os.getpid() != parent and hi >= at:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "hang":
                time.sleep(60)
            raise RuntimeError("injected\nfault")
        scan_to(self, hi, on_survivor)

    monkeypatch.setattr(ResidueFilter, "scan_to", failing)


@pytest.mark.parametrize("how,message", [
    ("raise", "scan shard n=1601..3000: RuntimeError: injected fault"),
    ("kill", "scan shard n=1601..3000: killed by signal 9 before sending its result"),
])
def test_failed_child_stops_at_last_finished_segment(tmp_path, monkeypatch, how, message):
    ck = str(tmp_path / "scan.ck")
    config = SearchConfig(max_n=3000, pool_size=2, checkpoint_path=ck, checkpoint_interval=100)
    _, clean = _scan(monkeypatch, config, 1)

    _force_shards(monkeypatch, 2)
    log, pids = _record(monkeypatch)
    _fail_in_child(monkeypatch, 2000, how)
    with pytest.raises(ShardError) as info:
        run(config, on_event=lambda *event: log.append(event))
    assert str(info.value) == message
    _assert_reaped(pids)
    # the child finished 1601..1900 before failing at its 2000 segment:
    # everything up to the checkpoint at 1900, once, and nothing past it
    checkpoints = [entry for entry in clean if isinstance(entry, bytes)]
    assert log == clean[:clean.index(checkpoints[18]) + 1]


def test_cli_exits_2_on_a_failed_child_and_resumes_exactly(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_reporting, "SearchConfig",
                        functools.partial(SearchConfig, checkpoint_interval=100))
    clean = tmp_path / "clean.jsonl"
    assert _cli_search("--report", str(clean)) == 0
    capsys.readouterr()

    _force_shards(monkeypatch, 2)
    report, ck = tmp_path / "report.jsonl", str(tmp_path / "scan.ck")
    with monkeypatch.context() as m:
        _fail_in_child(m, 1500, "raise")
        code = _cli_search("--checkpoint", ck, "--report", str(report))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("search: scan shard n=") and err.count("\n") == 1
    # the report stops where the checkpoint does, so a resume completes it
    # byte for byte
    assert _cli_search("--checkpoint", ck, "--report", str(report),
                       "--resume") == 0
    assert report.read_bytes() == clean.read_bytes()


def test_interrupt_in_parent_kills_and_reaps_children(tmp_path, monkeypatch):
    # the children hang, so only a kill ends them in time
    _force_shards(monkeypatch, 4)
    _, pids = _record(monkeypatch)
    _fail_in_child(monkeypatch, 0, "hang")
    started = time.monotonic()

    def interrupt(kind, n, m, q):
        if n > 500:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run(SearchConfig(max_n=3000, pool_size=2), on_event=interrupt)
    assert len(pids) == 3
    _assert_reaped(pids)
    assert time.monotonic() - started < 30
