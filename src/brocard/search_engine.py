"""Resumable filtered scan for solutions of n! + 1 = m**2.

The scan advances a factorial residue stream over a fixed prime pool and
applies the quadratic-residue filter (`qr_filter.ResidueFilter`) at every
n. Each survivor is settled by one `conditions.verify` call: a further
prime above n that rejects it (a Legendre certificate, reported with the
survivor), else an exact verdict; a survivor with neither, beyond the
exact-verification ceiling, is reported UNRESOLVED rather than silently
dropped. Progress is checkpointed to a small text file so a scan can be
killed and resumed without rework.

Determinism is a hard requirement: for a fixed pool, the reported
stream, all counters and every checkpoint are identical whether the scan
ran in one pass or was stopped and resumed. The first rejecting prime in
pool order is the one recorded.
"""

from __future__ import annotations

import os
import re
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

from . import conditions
from .factorial_engine import (
    EXACT_FACTORIAL_CEILING,
    CeilingError,
    FactorialState,
    PrimePool,
    build_prime_pool,
    initial_state,
)
from .qr_filter import ResidueFilter

DEFAULT_POOL_SIZE = 48
DEFAULT_CHECKPOINT_INTERVAL = 100_000

_CHECKPOINT_MAGIC = b"BROCARD-CHECKPOINT v1"
_CRC_RE = re.compile(rb"crc32=([0-9a-f]{8})\n")

# (kind, n, m, rejecting_prime)
EventCallback = Callable[[str, int, "int | None", "int | None"], None]


class CheckpointError(Exception):
    """Base for checkpoint load failures. All are fatal."""


class CheckpointVersionError(CheckpointError):
    """First line is not the expected format marker."""


class CheckpointChecksumError(CheckpointError):
    """Stored CRC32 does not match the file body."""


class CheckpointPoolMismatchError(CheckpointError):
    """Checkpoint was written for a different scan or prime pool."""


class CheckpointFormatError(CheckpointError):
    """Checksum holds but a field is structurally invalid."""


@dataclass
class SearchConfig:
    max_n: int
    pool_size: int = DEFAULT_POOL_SIZE
    checkpoint_path: str | None = None
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    exact_verify_ceiling: int = EXACT_FACTORIAL_CEILING
    resume: bool = False
    # Halt after this n (checkpoint saved), leaving the scan resumable.
    # Used to exercise resume paths without killing the process.
    stop_n: int | None = None


@dataclass
class SearchSummary:
    """What one run segment did. Counters cover this segment only."""

    scanned_range: tuple[int, int]
    resumed_from: int | None
    completed: bool
    solutions: list[tuple[int, int]] = field(default_factory=list)
    survivors: int = 0
    unresolved: list[int] = field(default_factory=list)
    rejections_by_prime: dict[int, int] = field(default_factory=dict)
    wall_time_s: float = 0.0


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(state: FactorialState, pool: PrimePool, path: str) -> None:
    """Write the stream position atomically (temp file, then rename).

    Layout is line-oriented ASCII: a version marker, max_n, n, the prime
    count, one prime,residue pair per pool prime in pool order, and a
    CRC32 over every preceding byte.
    """
    assert len(state.residues) == len(pool.primes)
    lines = [
        _CHECKPOINT_MAGIC.decode("ascii"),
        f"max_n={pool.max_n}",
        f"n={state.n}",
        f"primes={len(pool.primes)}",
    ]
    lines.extend(f"{p},{r}" for p, r in zip(pool.primes, state.residues))
    body = ("\n".join(lines) + "\n").encode("ascii")
    data = body + b"crc32=%08x\n" % zlib.crc32(body)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str, pool: PrimePool) -> FactorialState:
    """Parse and validate a checkpoint against the pool it must match.

    Validation order: version marker first, then checksum over the whole
    body, then field structure, then pool identity. Each failure mode
    raises its own CheckpointError subclass.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    first_line, _, _ = data.partition(b"\n")
    if first_line != _CHECKPOINT_MAGIC:
        raise CheckpointVersionError(
            f"{path}: unrecognized header {first_line[:40]!r}"
        )
    idx = data.rfind(b"\ncrc32=")
    if idx < 0:
        raise CheckpointChecksumError(f"{path}: checksum line missing")
    body, tail = data[: idx + 1], data[idx + 1 :]
    m = _CRC_RE.fullmatch(tail)
    if m is None:
        raise CheckpointChecksumError(f"{path}: malformed checksum line")
    if zlib.crc32(body) != int(m.group(1), 16):
        raise CheckpointChecksumError(f"{path}: checksum mismatch")

    lines = body.decode("ascii").splitlines()
    fields = {}
    for key, line in zip(("max_n", "n", "primes"), lines[1:4]):
        name, eq, value = line.partition("=")
        if name != key or eq != "=" or not value.isdigit():
            raise CheckpointFormatError(f"{path}: bad field line {line!r}")
        fields[key] = int(value)
    pair_lines = lines[4:]
    if fields.get("primes") != len(pair_lines):
        raise CheckpointFormatError(f"{path}: prime count disagrees with pair lines")
    if fields["n"] > fields["max_n"]:
        raise CheckpointFormatError(f"{path}: position n={fields['n']} beyond max_n")

    if fields["max_n"] != pool.max_n:
        raise CheckpointPoolMismatchError(
            f"{path}: checkpoint scans to {fields['max_n']}, this scan to {pool.max_n}"
        )
    if len(pair_lines) != len(pool.primes):
        raise CheckpointPoolMismatchError(
            f"{path}: pool has {len(pair_lines)} primes, expected {len(pool.primes)}"
        )
    residues = []
    for line, p in zip(pair_lines, pool.primes):
        left, comma, right = line.partition(",")
        if comma != "," or not left.isdigit() or not right.isdigit():
            raise CheckpointFormatError(f"{path}: bad pair line {line!r}")
        if int(left) != p:
            raise CheckpointPoolMismatchError(
                f"{path}: pool prime {left} does not match expected {p}"
            )
        r = int(right)
        if not 1 <= r < p:
            raise CheckpointFormatError(f"{path}: residue {r} out of range for prime {p}")
        residues.append(r)
    return FactorialState(n=fields["n"], residues=residues)


# ---------------------------------------------------------------------------
# scanning


def run(config: SearchConfig, on_event: EventCallback | None = None) -> SearchSummary:
    """Execute (or resume) a scan and return what this segment found.

    Events are delivered in ascending n: ("solution", n, m, None),
    ("survivor", n, None, q) with q the rejecting prime, or None when exact
    arithmetic settled n, and ("unresolved", n, None, None).
    """
    if config.max_n < 0:
        raise ValueError("max_n must be non-negative")
    if config.checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be positive")
    if config.resume and not config.checkpoint_path:
        raise ValueError("resume requires a checkpoint path")

    started = time.perf_counter()
    pool = build_prime_pool(config.max_n, config.pool_size)
    resumed_from: int | None = None
    if config.resume:
        state = load_checkpoint(config.checkpoint_path, pool)
        resumed_from = state.n
    else:
        state = initial_state(pool)

    start = state.n
    stop = config.max_n if config.stop_n is None else min(config.stop_n, config.max_n)

    solutions: list[tuple[int, int]] = []
    unresolved: list[int] = []
    survivors = 0

    def settle_survivor(n: int) -> None:
        nonlocal survivors
        survivors += 1
        try:
            report = conditions.verify(n, ceiling=config.exact_verify_ceiling,
                                       certify=conditions.CERTIFICATE_PRIMES)
        except CeilingError:
            unresolved.append(n)
            if on_event:
                on_event("unresolved", n, None, None)
            return
        if report.is_solution:
            solutions.append((n, report.m))
            if on_event:
                on_event("solution", n, report.m, None)
        elif on_event:
            on_event("survivor", n, None, report.rejecting_prime)

    kernel = ResidueFilter(pool, state, stop)
    interval = config.checkpoint_interval
    while kernel.n < stop:
        # Segments end at checkpoint boundaries, where the residues are saved.
        hi = min(stop, (kernel.n // interval + 1) * interval) if config.checkpoint_path else stop
        kernel.scan_to(hi, settle_survivor)
        if config.checkpoint_path and (hi % interval == 0 or hi < config.max_n):
            save_checkpoint(kernel.state(), pool, config.checkpoint_path)

    return SearchSummary(
        scanned_range=(max(2, start + 1), stop),
        resumed_from=resumed_from,
        completed=stop == config.max_n,
        solutions=solutions,
        survivors=survivors,
        unresolved=unresolved,
        rejections_by_prime=dict(sorted(kernel.rejections.items())),
        wall_time_s=time.perf_counter() - started,
    )
