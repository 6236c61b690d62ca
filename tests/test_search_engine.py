from __future__ import annotations

import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brocard import factorial_engine, search_engine
from brocard.exact_arith import is_prime_64
from brocard.factorial_engine import FactorialState, build_prime_pool, seed_state
from brocard.search_engine import (
    CheckpointError,
    SearchConfig,
    load_checkpoint,
    run,
    save_checkpoint,
)


def _refusal(path, message):
    """A `match=` pattern for exactly load_checkpoint's refusal of path."""
    return f"^{re.escape(f'{path}: {message}')}$"


def _collect(config):
    events = []
    summary = run(config, on_event=lambda kind, n, m, q: events.append((kind, n, m)))
    return summary, events


# ---------------------------------------------------------------------------
# scanning


def test_run_finds_known_solutions():
    summary, events = _collect(SearchConfig(max_n=100))
    assert summary.solutions == [(4, 5), (5, 11), (7, 71)]
    assert summary.unresolved == []
    assert summary.survivors == 3
    assert summary.completed
    assert summary.scanned_range == (2, 100)
    assert events == [("solution", 4, 5), ("solution", 5, 11), ("solution", 7, 71)]


def test_run_empty_and_tiny_ranges():
    summary, events = _collect(SearchConfig(max_n=3))
    assert summary.solutions == []
    assert events == []
    assert summary.completed
    summary, _ = _collect(SearchConfig(max_n=1))
    assert summary.solutions == []


def test_run_counts_every_n():
    summary, _ = _collect(SearchConfig(max_n=500))
    rejected = sum(summary.rejections_by_prime.values())
    assert rejected + summary.survivors == 499
    # every rejecting prime really is in the pool
    pool = build_prime_pool(500, 48)
    assert set(summary.rejections_by_prime) <= set(pool.primes)


def test_run_unresolved_beyond_exact_ceiling(monkeypatch):
    # survivors above the ceiling must surface, never vanish
    monkeypatch.setattr(factorial_engine, "EXACT_FACTORIAL_CEILING", 6)
    summary, events = _collect(SearchConfig(max_n=10))
    assert summary.solutions == [(4, 5), (5, 11)]
    assert summary.unresolved == [7]
    assert ("unresolved", 7, None) in events


def test_run_settles_survivors_by_certificate_above_the_ceiling(monkeypatch):
    # with one pool prime about half of all n survive; above the ceiling a
    # certificate settles them, and only the solution 7 stays unresolved
    monkeypatch.setattr(factorial_engine, "EXACT_FACTORIAL_CEILING", 6)
    summary, events = _collect(SearchConfig(max_n=200, pool_size=1))
    assert summary.unresolved == [7]
    assert summary.solutions == [(4, 5), (5, 11)]
    assert summary.survivors > 50
    assert [kind for kind, _, _ in events].count("survivor") == summary.survivors - 3


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3000), st.sampled_from([1, 2, 8]))
def test_emitted_certificates_recheck_with_one_pow(max_n, pool_size):
    events = []
    run(SearchConfig(max_n=max_n, pool_size=pool_size),
        on_event=lambda kind, n, m, q: events.append((kind, n, q)))
    f, at = 1, 0
    for kind, n, q in events:
        assert (kind == "survivor") == (n not in (4, 5, 7))
        if kind != "survivor":
            assert q is None
            continue
        f *= math.prod(range(at + 1, n + 1))
        at = n
        assert q > n and q > 2 and is_prime_64(q)
        assert pow((f + 1) % q, (q - 1) // 2, q) == q - 1


def test_run_validates_config(tmp_path):
    with pytest.raises(ValueError):
        run(SearchConfig(max_n=10, resume=True))
    with pytest.raises(ValueError, match="max_n must be non-negative"):
        run(SearchConfig(max_n=-1))
    # a stop below the start, resumed or from 0, is refused before any
    # scan work: no event, and the checkpoint is left as it was
    ck = str(tmp_path / "scan.ck")
    run(SearchConfig(max_n=3000, pool_size=4, checkpoint_path=ck, stop_n=2000))
    with open(ck, "rb") as fh:
        saved = fh.read()
    events = []
    for config in [SearchConfig(max_n=3000, pool_size=4, checkpoint_path=ck, resume=True,
                                stop_n=100),
                   SearchConfig(max_n=3000, pool_size=4, checkpoint_path=ck, stop_n=-1)]:
        with pytest.raises(ValueError, match="lies below the scan's start"):
            run(config, on_event=lambda *event: events.append(event))
    assert events == []
    with open(ck, "rb") as fh:
        assert fh.read() == saved


# ---------------------------------------------------------------------------
# checkpoints


def _pool_and_state(max_n=50, count=4, n=10):
    pool = build_prime_pool(max_n, count)
    return pool, FactorialState(n=n, residue=math.factorial(n) % math.prod(pool.primes))


def test_checkpoint_roundtrip(tmp_path):
    pool, state = _pool_and_state()
    path = str(tmp_path / "scan.ck")
    save_checkpoint(state, pool, path)
    assert load_checkpoint(path, pool) == state
    # atomic write leaves no temp file behind
    assert os.listdir(tmp_path) == ["scan.ck"]


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([1, 2, 3, 48]), max_n=st.integers(0, 3000), data=st.data())
def test_checkpoint_roundtrip_of_seeded_states(tmp_path_factory, size, max_n, data):
    # the file holds n! mod p per prime, and loading returns the one
    # residue the stream carries
    pool = build_prime_pool(max_n, size)
    state = seed_state(pool, data.draw(st.integers(0, max_n), label="n"))
    path = str(tmp_path_factory.mktemp("ck") / "scan.ck")
    save_checkpoint(state, pool, path)
    assert load_checkpoint(path, pool) == state
    with open(path, encoding="ascii") as fh:
        pair_lines = fh.read().splitlines()[4:-1]
    f = math.factorial(state.n)
    assert pair_lines == [f"{p},{f % p}" for p in pool.primes]


def test_checkpoint_is_plain_text(tmp_path):
    pool, state = _pool_and_state(n=10)
    path = str(tmp_path / "scan.ck")
    save_checkpoint(state, pool, path)
    raw = (tmp_path / "scan.ck").read_bytes()
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == "BROCARD-CHECKPOINT v1"
    assert lines[1] == "max_n=50"
    assert lines[2] == "n=10"
    assert lines[3] == "primes=4"
    assert len(lines) == 4 + 4 + 1
    assert lines[-1].startswith("crc32=")
    # residues recomputed independently
    for line, p in zip(lines[4:8], pool.primes):
        assert line == f"{p},{math.factorial(10) % p}"


def test_checkpoint_reaches_the_disk_before_its_rename(tmp_path, monkeypatch):
    # After an OS crash the rename must not leave a checkpoint whose bytes
    # were lost: the temp file is fsynced at its final size before
    # os.replace puts it in place.
    pool, state = _pool_and_state()
    path = str(tmp_path / "scan.ck")
    log = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        fsync(fd)
        log.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))

    def logged_replace(src, dst):
        log.append(("replace", os.stat(src).st_ino, os.stat(src).st_size))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    save_checkpoint(state, pool, path)
    saved = os.stat(path)
    assert log[-1] == ("replace", saved.st_ino, saved.st_size)
    assert ("fsync", saved.st_ino, saved.st_size) in log[:-1]


def test_checkpoint_version_rejected_first(tmp_path):
    pool, state = _pool_and_state()
    path = str(tmp_path / "scan.ck")
    save_checkpoint(state, pool, path)
    raw = (tmp_path / "scan.ck").read_bytes()
    (tmp_path / "scan.ck").write_bytes(raw.replace(b"v1", b"v9", 1))
    with pytest.raises(CheckpointError,
                       match=_refusal(path, "unrecognized header b'BROCARD-CHECKPOINT v9'")):
        load_checkpoint(path, pool)


def test_checkpoint_checksum_detects_corruption(tmp_path):
    pool, state = _pool_and_state()
    path = str(tmp_path / "scan.ck")
    save_checkpoint(state, pool, path)
    raw = bytearray((tmp_path / "scan.ck").read_bytes())
    flip = raw.index(b"n=") + 2
    raw[flip] = raw[flip] ^ 1 | 0x30  # keep it a digit, change its value
    (tmp_path / "scan.ck").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=_refusal(path, "checksum mismatch")):
        load_checkpoint(path, pool)


def test_checkpoint_missing_checksum_line(tmp_path):
    pool, state = _pool_and_state()
    path = str(tmp_path / "scan.ck")
    save_checkpoint(state, pool, path)
    raw = (tmp_path / "scan.ck").read_bytes()
    (tmp_path / "scan.ck").write_bytes(raw.rsplit(b"crc32=", 1)[0])
    with pytest.raises(CheckpointError, match=_refusal(path, "checksum line missing")):
        load_checkpoint(path, pool)


def test_checkpoint_pool_mismatch(tmp_path):
    pool, state = _pool_and_state(max_n=50, count=4)
    path = str(tmp_path / "scan.ck")
    save_checkpoint(state, pool, path)
    other_size = build_prime_pool(50, 5)
    with pytest.raises(CheckpointError, match=_refusal(path, "pool has 4 primes, expected 5")):
        load_checkpoint(path, other_size)
    other_scan = build_prime_pool(60, 4)
    with pytest.raises(CheckpointError,
                       match=_refusal(path, "checkpoint scans to 50, this scan to 60")):
        load_checkpoint(path, other_scan)


def test_checkpoint_rejects_structural_nonsense(tmp_path):
    pool, state = _pool_and_state()
    path = str(tmp_path / "scan.ck")
    # n beyond max_n, with a valid checksum: structurally invalid
    import zlib

    lines = ["BROCARD-CHECKPOINT v1", "max_n=50", "n=60", "primes=4"]
    lines += [f"{p},{state.residue % p}" for p in pool.primes]
    body = ("\n".join(lines) + "\n").encode()
    (tmp_path / "scan.ck").write_bytes(body + b"crc32=%08x\n" % zlib.crc32(body))
    with pytest.raises(CheckpointError, match=_refusal(path, "position n=60 beyond max_n")):
        load_checkpoint(path, pool)


@pytest.mark.parametrize("case,message", [
    ("checksum line", "malformed checksum line"),
    ("field line", "bad field line 'count=4'"),
    ("pair line", "bad pair line '59;'"),
    ("prime count", "prime count disagrees with pair lines"),
    ("pool prime", "pool prime 60 does not match expected 59"),
])
def test_checkpoint_refusals_under_a_valid_crc(tmp_path, case, message):
    # each body is sealed with its own CRC, so the load gets past the
    # checksum (or, for the checksum line itself, finds the right value in
    # a line of the wrong shape) and refuses on what it checks next
    import zlib

    pool, state = _pool_and_state()
    lines = ["BROCARD-CHECKPOINT v1", "max_n=50", "n=10", "primes=4"]
    lines += [f"{p},{state.residue % p}" for p in pool.primes]
    assert pool.primes[1] == 59
    seal = b"crc32=%08x\n"
    if case == "checksum line":
        seal = b"crc32=%08x \n"
    elif case == "field line":
        lines[3] = "count=4"
    elif case == "pair line":
        lines[5] = "59;"
    elif case == "prime count":
        lines[3] = "primes=5"
    else:
        lines[5] = lines[5].replace("59,", "60,")
    body = ("\n".join(lines) + "\n").encode("ascii")
    path = tmp_path / "scan.ck"
    path.write_bytes(body + seal % zlib.crc32(body))
    with pytest.raises(CheckpointError, match=_refusal(path, message)):
        load_checkpoint(str(path), pool)


def test_checkpoint_written_at_interval(tmp_path, monkeypatch):
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 40)
    path = str(tmp_path / "scan.ck")
    run(SearchConfig(max_n=100, pool_size=4, checkpoint_path=path))
    pool = build_prime_pool(100, 4)
    state = load_checkpoint(path, pool)
    assert state.n == 80  # last interval boundary inside the scan
    assert state.residue == math.factorial(80) % math.prod(pool.primes)


@pytest.mark.parametrize("max_n,count,n", [(3000, 48, 2000), (3000, 2, 1500),
                                          (200_000, 48, 150_000)])
def test_kernel_checkpoint_matches_exact_residues(tmp_path, monkeypatch, max_n, count, n):
    # the scan's checkpoint at n, from one pass (table front) and from a
    # short resumed segment (pow front, from the residue the load checked), is
    # the file written from n! mod the pool product computed exactly
    pool = build_prime_pool(max_n, count)
    modulus = math.prod(pool.primes)
    exact = str(tmp_path / "exact.ck")
    save_checkpoint(FactorialState(n=n, residue=math.factorial(n) % modulus), pool, exact)
    scanned = str(tmp_path / "scan.ck")
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", n)
    if n < 100_000:
        run(SearchConfig(max_n=max_n, pool_size=count, checkpoint_path=scanned, stop_n=n))
    else:
        back = n - 2000
        save_checkpoint(FactorialState(n=back, residue=math.factorial(back) % modulus),
                        pool, scanned)
        run(SearchConfig(max_n=max_n, pool_size=count, checkpoint_path=scanned,
                         resume=True, stop_n=n))
    assert (tmp_path / "scan.ck").read_bytes() == (tmp_path / "exact.ck").read_bytes()


def test_stop_n_halts_with_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 1000)
    path = str(tmp_path / "scan.ck")
    summary = run(SearchConfig(max_n=100, pool_size=4, checkpoint_path=path, stop_n=30))
    assert not summary.completed
    assert summary.scanned_range == (2, 30)
    state = load_checkpoint(path, build_prime_pool(100, 4))
    assert state.n == 30


def test_resume_equivalence(tmp_path, monkeypatch):
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", 500)
    path = str(tmp_path / "scan.ck")
    full_summary, full_events = _collect(SearchConfig(max_n=1000, pool_size=8))

    first = SearchConfig(max_n=1000, pool_size=8, checkpoint_path=path, stop_n=500)
    part1, events1 = _collect(first)
    assert not part1.completed
    second = SearchConfig(max_n=1000, pool_size=8, checkpoint_path=path, resume=True)
    part2, events2 = _collect(second)
    assert part2.completed
    assert part2.resumed_from == 500
    assert part2.scanned_range == (501, 1000)

    # the stopped run saves one more checkpoint than the uninterrupted one,
    # which saves none, and each save comes with its event
    checkpoints = [event for event in events1 + events2 if event[0] == "checkpoint"]
    assert checkpoints == [("checkpoint", 500, None), ("checkpoint", 1000, None)]
    assert [event for event in events1 + events2 if event[0] != "checkpoint"] == full_events
    assert part1.survivors + part2.survivors == full_summary.survivors
    assert part1.solutions + part2.solutions == full_summary.solutions
    merged = dict(part1.rejections_by_prime)
    for p, c in part2.rejections_by_prime.items():
        merged[p] = merged.get(p, 0) + c
    assert merged == full_summary.rejections_by_prime


def test_resume_missing_checkpoint_errors(tmp_path):
    config = SearchConfig(max_n=100, checkpoint_path=str(tmp_path / "absent.ck"),
                          resume=True)
    with pytest.raises(FileNotFoundError):
        run(config)
