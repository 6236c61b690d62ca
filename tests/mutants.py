"""Mutation gate for the proof machine's checks.

Each entry below breaks one check in src/ by one exact text edit and
names the tests that must catch it. Run from anywhere:

    python3 tests/mutants.py

The named tests are first run on an unmutated copy, where they must all
pass. Then, for each entry, src/, tests/ and pyproject.toml (for its
pytest settings) are copied to a fresh temporary directory (tests that
start `python -m brocard` from their own root so run the mutant too),
the entry's old text must occur exactly
once in its file, it is replaced, and only the named tests run, with
PYTHONPATH at the copy's src/. Every named test must fail.

Exit status: 0 when every mutant is killed, 1 when one survives (a named
test passes), 2 when an entry's old text is missing or occurs more than
once, or when its tests do not run (an unknown test id, a timeout).

The list is chosen by hand: it proves that the listed checks are tested,
not that every check is. Removing or weakening an entry loosens the gate.
Left out as equivalent on every testable input: `legendre_certificate`
walking twice its budget of primes, which differs only where 64 primes
fail to reject a non-solution (probability about 2**-64).

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# one mutant's tests take seconds; a mutant that hangs them fails the gate
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_SE = "src/brocard/search_engine.py"
_QR = "src/brocard/qr_filter.py"
_FE = "src/brocard/factorial_engine.py"
_EA = "src/brocard/exact_arith.py"
_CLI = "src/brocard/cli_reporting.py"
_T_SE = "tests/test_search_engine.py::"
_T_CLI = "tests/test_cli_reporting.py::"
_T_SH = "tests/test_shards.py::"
_T_QR = "tests/test_qr_filter.py::"

MUTANTS = [
    # load_checkpoint, in its order of checks (exit 3)
    Mutant("checkpoint header not checked", _SE,
           "    if first_line != _CHECKPOINT_MAGIC:\n",
           "    if False:\n",
           (_T_SE + "test_checkpoint_version_rejected_first",)),
    Mutant("checkpoint CRC not compared", _SE,
           "    if seal != b\"%08x\\n\" % zlib.crc32(body):\n",
           "    if False:\n",
           (_T_SE + "test_checkpoint_checksum_detects_corruption",
            _T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[checksum line-checksum line missing or wrong]")),
    Mutant("checkpoint field line shape not checked", _SE,
           "                raise CheckpointError(f\"{path}: bad field line {line!r}\")\n",
           "                continue\n",
           (_T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[field line-bad field line 'count=4']",
            _T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[short body-bad field line '']",
            _T_CLI + "test_unreadable_checkpoint_body_exits_3[bad field line]")),
    Mutant("unreadable checkpoint body escapes as ValueError", _SE,
           "    except ValueError as exc:\n",
           "    except KeyError as exc:\n",
           (_T_CLI + "test_unreadable_checkpoint_body_exits_3[non-ASCII byte]",
            _T_CLI + "test_unreadable_checkpoint_body_exits_3"
            "[number past int's digit limit]")),
    Mutant("checkpoint n beyond max_n accepted", _SE,
           "    if n > max_n:\n",
           "    if False:\n",
           (_T_SE + "test_checkpoint_rejects_structural_nonsense",)),
    Mutant("checkpoint max_n not matched to the scan's", _SE,
           "    if max_n != pool.max_n:\n",
           "    if False:\n",
           (_T_SE + "test_checkpoint_pool_mismatch",)),
    Mutant("checkpoint pool size not matched", _SE,
           "    if count != len(pool.primes):\n",
           "    if False:\n",
           (_T_SE + "test_checkpoint_pool_mismatch",
            _T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[pool size-pool has 5 primes, expected 4]")),
    # the last check: the residues, their spelling and their order
    Mutant("checkpoint not compared with the writer's bytes", _SE,
           "    if data != _checkpoint_bytes(state, pool):\n",
           "    if False:\n",
           (_T_CLI + "test_checkpoint_with_a_wrong_residue_exits_3[seed side]",
            _T_CLI + "test_checkpoint_with_a_wrong_residue_exits_3[top side]",
            _T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[pair line-not the checkpoint this scan writes at n=10]",
            _T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[pool prime-not the checkpoint this scan writes at n=10]",
            _T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[residue zero-not the checkpoint this scan writes at n=10]",
            _T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[n zero-not the checkpoint this scan writes at n=10]",
            _T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[extra pair-not the checkpoint this scan writes at n=10]",
            _T_SE + "test_checkpoint_refusals_under_a_valid_crc"
            "[swapped pairs-not the checkpoint this scan writes at n=10]")),
    Mutant("checkpoint renamed before it is on disk", _SE,
           "        os.fsync(fh.fileno())\n",
           "",
           (_T_SE + "test_checkpoint_reaches_the_disk_before_its_rename",)),
    # the stream checks while a scan runs (exit 2)
    Mutant("one-shard scan not checked where it stops", _SE,
           "            if hi == stop and record[1] != seed_state(pool, hi).residue:\n",
           "            if False:\n",
           (_T_SH + "test_a_one_shard_scan_whose_top_drifts_exits_2",
            _T_SH + "test_a_one_shard_scan_is_checked_where_it_stops")),
    Mutant("one-shard scan checked only at max_n", _SE,
           "            if hi == stop and record[1] != seed_state(pool, hi).residue:\n",
           "            if hi == config.max_n and record[1] != seed_state(pool, hi).residue:\n",
           (_T_SH + "test_a_one_shard_scan_is_checked_where_it_stops",)),
    Mutant("shard cut not checked", _SE,
           "        if self.receive() != below:\n",
           "        if self.receive() != below and False:\n",
           (_T_SH + "test_a_child_whose_residue_drifts_fails_at_its_cut",)),
    Mutant("piece front not checked against its packed stream", _QR,
           "    if [r0, r1, r2, r3] != [at % p for p in moduli]:\n",
           "    if False:\n",
           (_T_QR + "test_a_drifting_packed_stream_fails_its_piece[up]",
            _T_QR + "test_a_drifting_packed_stream_fails_its_piece[down]")),
    Mutant("a child's error record taken as a piece", _SE,
           "        if isinstance(record, str):\n",
           "        if False:\n",
           (_T_SH + "test_failed_child_stops_at_last_finished_segment[first piece-raise]",)),
    Mutant("a child that died is not reported as a failed shard", _SE,
           "        except (EOFError, ValueError, TypeError):\n",
           "        except (ValueError, TypeError):\n",
           (_T_SH + "test_failed_child_stops_at_last_finished_segment[first piece-kill]",)),
    Mutant("failed fork leaks its read end", _SE,
           "    except BaseException:\n        os.close(read_fd)\n",
           "    except BaseException:\n",
           (_T_SH + "test_a_failed_fork_closes_its_pipe_and_reaps_the_children_before",)),
    Mutant("children left unkilled and unreaped on close", _SE,
           "        if self.pid is not None:\n",
           "        if False:\n",
           (_T_SH + "test_failed_child_stops_at_last_finished_segment[first piece-raise]",)),
    Mutant("a child's pipe left open on close", _SE,
           "        self.pipe.close()\n",
           "        pass\n",
           (_T_SH + "test_interrupt_in_parent_kills_and_reaps_children",
            _T_SH + "test_cli_report_and_checkpoint_bytes_match_one_process")),
    Mutant("fork while other threads run", _SE,
           "    if not hasattr(os, \"fork\") or threading.active_count() > 1:\n",
           "    if not hasattr(os, \"fork\"):\n",
           (_T_SH + "test_shard_count_follows_cores_and_span",)),
    # SIGTERM in a sharded scan (exit 143)
    Mutant("SIGTERM exits with another status", _SE,
           "        raise SystemExit(128 + signum)\n",
           "        raise SystemExit(1)\n",
           (_T_SH + "test_a_second_sigterm_cannot_cut_the_cleanup_short",
            _T_SH + "test_sigterm_in_parent_kills_and_reaps_children")),
    Mutant("a second SIGTERM can cut the cleanup short", _SE,
           "        signal.signal(signum, signal.SIG_IGN)\n",
           "",
           (_T_SH + "test_a_second_sigterm_cannot_cut_the_cleanup_short",)),
    # the kernel and the stream's start
    Mutant("tail rejection not first in pool order", _QR,
           "            for i, p, table, half in tests:\n",
           "            for i, p, table, half in tests[::-1]:\n",
           (_T_QR + "test_first_rejecting_prime_in_pool_order",)),
    Mutant("tables not bounded by memory", _QR,
           "    return (held <= _TABLE_MEMORY\n",
           "    return (True\n",
           (_T_QR + "test_table_side_follows_segment_length",)),
    Mutant("seed_state seeds from the dearer side", _FE,
           "    if n <= pool.primes[-1] - n:\n",
           "    if 2 * n <= pool.primes[-1] - n:\n",
           (_T_SH + "test_shard_starts_take_the_cheaper_side[1]",)),
    # the exact layer (exit 2 at the precision budget)
    Mutant("Miller-Rabin small witnesses cut", _EA,
           "_MR_SMALL_WITNESSES = (2, 7, 61)\n",
           "_MR_SMALL_WITNESSES = (2, 7)\n",
           ("tests/test_exact_arith.py::test_is_prime_64_strong_pseudoprime_traps",)),
    Mutant("Miller-Rabin 64-bit witnesses cut", _EA,
           "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)\n",
           "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23)\n",
           ("tests/test_exact_arith.py::test_is_prime_64_strong_pseudoprime_traps",)),
    Mutant("precision budget not checked before exact work", "src/brocard/epsilon_lab.py",
           "    if d is not None and n >= 0:\n",
           "    if False:\n",
           ("tests/test_epsilon_lab.py::test_budget_refused_before_the_factorial_is_built",
            _T_CLI + "test_over_budget_commands_refuse_before_notice_and_factorial[argv3]")),
    # the report (exits 1 and 2)
    Mutant("solution line not rechecked", _CLI,
           "    if math.factorial(line.n) + 1 != line.m * line.m:\n",
           "    if False:\n",
           (_T_CLI + "test_emit_report_verifies_solution_lines",)),
    Mutant("survivor certificate not rechecked", _CLI,
           "    if line.n is None or not conditions.is_certificate(line.n, line.rejecting_prime):\n",
           "    if line.n is None:\n",
           (_T_CLI + "test_emit_report_rechecks_rejecting_primes",
            _T_CLI + "test_a_survivor_whose_prime_is_not_its_certificate_exits_2")),
    Mutant("report to resume into may hold a line that is not JSON", _CLI,
           "                        except (ValueError, TypeError, KeyError):\n",
           "                        except (TypeError, KeyError):\n",
           (_T_CLI + "test_resume_with_torn_report_line_exits_1",)),
    Mutant("report to resume into may end in a torn line", _CLI,
           "                    if not raw.endswith(b\"\\n\"):\n",
           "                    if False:\n",
           (_T_CLI + "test_resume_onto_a_line_without_its_line_end_exits_1",)),
    Mutant("report not on disk before its checkpoint", _CLI,
           "                os.fsync(self._stream.fileno())\n",
           "                pass\n",
           (_T_SH + "test_report_reaches_the_disk_before_each_checkpoint[1]",
            _T_SH + "test_report_reaches_the_disk_before_each_checkpoint[2]")),
    # the exit code of each row of cli_reporting._FAILURES
    Mutant("refused arguments exit 2", _CLI,
           "    (_Refused, \"error\", 1),\n",
           "    (_Refused, \"error\", 2),\n",
           (_T_CLI + "test_usage_error_resume_without_report",
            _T_CLI + "test_semantic_usage_errors")),
    Mutant("report integrity failure exits 1", _CLI,
           "    (ReportIntegrityError, \"report integrity\", 2),\n",
           "    (ReportIntegrityError, \"report integrity\", 1),\n",
           (_T_CLI + "test_a_survivor_whose_prime_is_not_its_certificate_exits_2",)),
    Mutant("unreadable report to resume into exits 2", _CLI,
           "    (ReportFormatError, \"report\", 1),\n",
           "    (ReportFormatError, \"report\", 2),\n",
           (_T_CLI + "test_resume_onto_a_line_without_its_line_end_exits_1",)),
    Mutant("refused checkpoint exits 2", _CLI,
           "    (CheckpointError, \"checkpoint\", 3),\n",
           "    (CheckpointError, \"checkpoint\", 2),\n",
           (_T_CLI + "test_checkpoint_with_a_wrong_residue_exits_3[seed side]",)),
    Mutant("failed scan exits 1", _CLI,
           "    ((ShardError, StreamError), \"search\", 2),\n",
           "    ((ShardError, StreamError), \"search\", 1),\n",
           (_T_SH + "test_a_one_shard_scan_whose_top_drifts_exits_2",)),
    Mutant("limit exits 1", _CLI,
           "    ((BitBudgetError, CeilingError), \"limit\", 2),\n",
           "    ((BitBudgetError, CeilingError), \"limit\", 1),\n",
           (_T_CLI + "test_over_budget_commands_refuse_before_notice_and_factorial[argv0]",)),
    Mutant("io error exits 1", _CLI,
           "    (OSError, \"io\", 2),\n",
           "    (OSError, \"io\", 1),\n",
           (_T_CLI + "test_missing_checkpoint_resume_exits_2",)),
]


def _copy(into: Path) -> None:
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, into / tree,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    # its filterwarnings fail a test that leaks a file or pipe
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def _failed(tests: tuple[str, ...], tree: Path) -> dict[str, bool]:
    """Run the tests in tree; whether each one that ran failed. None ran
    if the run timed out."""
    junit = tree / "junit.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        f"--junitxml={junit}", *tests],
                       cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}
    if not junit.exists():
        return {}
    outcomes = {}
    for case in ET.parse(junit).iter("testcase"):
        module = case.get("classname", "").replace(".", "/")
        outcomes[f"{module}.py::{case.get('name')}"] = any(
            child.tag in ("failure", "error") for child in case)
    return outcomes


def _run(mutant: Mutant | None, tests: tuple[str, ...]) -> dict[str, bool]:
    with tempfile.TemporaryDirectory(prefix="brocard-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        if mutant is not None:
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        return _failed(tests, tree)


def main() -> int:
    started = time.monotonic()
    stale = [(m, count) for m in MUTANTS
             if (count := (ROOT / m.path).read_text().count(m.old)) != 1]
    for m, count in stale:
        print(f"STALE    {m.name}: its old text occurs {count} times in {m.path}")
    if stale:
        return 2

    every = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    clean = _run(None, every)
    broken = [t for t in every if clean.get(t, True)]
    if broken:
        for t in broken:
            print(f"UNCLEAN  {t}: {'fails' if t in clean else 'did not run'} "
                  "without a mutant")
        return 2
    print(f"clean    {len(every)} tests pass unmutated "
          f"({time.monotonic() - started:.1f} s)")

    status = 0
    for m in MUTANTS:
        began = time.monotonic()
        outcomes = _run(m, m.tests)
        missing = [t for t in m.tests if t not in outcomes]
        passed = [t for t in m.tests if not outcomes.get(t, True)]
        verdict = "ERROR" if missing else "SURVIVED" if passed else "killed"
        print(f"{verdict:8} {m.name} ({time.monotonic() - began:.1f} s)")
        for t in missing:
            print(f"           did not run: {t}")
        for t in passed:
            print(f"           passed: {t}")
        if missing:
            status = 2
        elif passed and not status:
            status = 1
    print(f"{len(MUTANTS)} mutants in {time.monotonic() - started:.1f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
