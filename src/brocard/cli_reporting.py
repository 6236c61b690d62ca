"""Command line front end and JSONL report stream.

Report lines are one JSON object per line with a fixed key order and no
whitespace, so two runs over the same range are byte-identical and a
long scan can be tailed. Solution lines are re-verified from scratch at
emit time (factorial recomputed, square compared), and a survivor's
rejecting prime is re-checked as its certificate, as a last defense
against engine bugs.

Exit codes: 0 success, 1 an argument the parser refuses. Every other
failure a command reports takes its one stderr line's prefix and its
exit code from `_FAILURES`, the one table of them; any other exception
is an internal error, printed with its traceback, exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from collections import Counter
from typing import IO, NamedTuple

from . import __version__, conditions
from .epsilon_lab import (NINE_RUN_START, RATIO_GUARD, FactorialRoot, admit_exact,
                          epsilon_digits, k_ratio_digits, log_factorial, nine_run)
from .exact_arith import BitBudgetError, decimal_str
from .factorial_engine import EXACT_FACTORIAL_CEILING, CeilingError, StreamError, is_factorial
from .search_engine import (
    DEFAULT_POOL_SIZE,
    CheckpointError,
    SearchConfig,
    ShardError,
    run,
)

# k values misquoted in circulated tabulations of these rows; the table
# command prints the computed k and flags the discrepancy.
MISQUOTED_K = {8: 26, 11: 6371}

# Exact work on n! (the factorial, its isqrt and their decimal digits)
# grows about as the square of n!'s digit count: `verify` takes 2.0-2.1 s
# at n = 10**5 (456574 digits), 8.8-9.2 s at 2 * 10**5 (973351 digits)
# and took 134-276 s at 10**6 (5565709 digits), on a 2-core x86-64 VM
# with CPython 3.11; 10**7 (65657060 digits) extrapolates to hours. From
# this n on, `verify`, `epsilon` and `table` say so on stderr first, with
# the span of the first row whose digit count n!'s stays below.
_STALL_NOTICE_N = 200_000
_STALL_SPANS = ((10**6, "seconds"), (2 * 10**7, "minutes"), (math.inf, "hours"))

# A resume checks the report's solution lines up to the checkpoint, or up
# to this n, against exact arithmetic: every known solution, n = 4, 5 and
# 7, lies at or below it, and the scan writes each in its first piece.
_RESUME_SOLUTIONS_TO = 7


class ReportIntegrityError(Exception):
    """A report line failed its independent re-verification."""


class ReportFormatError(Exception):
    """An existing report to be appended to holds a line that is not a
    report line, or cannot be the scan's report up to its checkpoint."""


class ReportLine(NamedTuple):
    kind: str
    n: int | None = None
    m: int | None = None
    rejecting_prime: int | None = None
    counters: dict | None = None


def render_line(line: ReportLine) -> str:
    """Canonical serialization: keys in ReportLine's field order, absent
    fields omitted."""
    return json.dumps({k: v for k, v in zip(line._fields, line) if v is not None},
                      separators=(",", ":"))


def _check_solution_line(line: ReportLine) -> None:
    # independent of the engine: recompute n! and compare squares
    if line.n is None or line.m is None:
        raise ReportIntegrityError(f"solution line missing n or m: {line}")
    if line.n > EXACT_FACTORIAL_CEILING:
        raise ReportIntegrityError(f"solution claim at n={line.n} beyond exact reach")
    if math.factorial(line.n) + 1 != line.m * line.m:
        raise ReportIntegrityError(f"solution line fails m^2 == n! + 1: {line}")


def _check_survivor_line(line: ReportLine) -> None:
    if line.n is None or not conditions.is_certificate(line.n, line.rejecting_prime):
        raise ReportIntegrityError(f"rejecting_prime does not certify the survivor: {line}")


def _check_line(line: ReportLine) -> None:
    if line.kind == "solution":
        _check_solution_line(line)
    elif line.kind == "survivor" and line.rejecting_prime is not None:
        _check_survivor_line(line)


class ReportWriter:
    """Incremental JSONL writer with a running count of lines per kind.

    Opening a file in append mode (the resume path) seeds the counts from
    the lines already present, and a "resume" event cuts the report back
    to its checkpoint and counts the lines it keeps, so the final summary
    covers the whole file, not just the resumed segment. The file must
    exist: a summary over a missing report would count the resumed
    segment alone. Its lines must ascend in n, as the scan writes them.
    """

    def __init__(self, stream: IO[str], *, owns_stream: bool) -> None:
        self._stream = stream
        self._owns = owns_stream
        self.kinds: Counter[str] = Counter()
        # (n, byte offset of its end, line) of each line the report held
        # when opened; n is infinite for a line past every checkpoint (a
        # summary, or a torn line, whose line is None)
        self._lines: list[tuple[float, int, ReportLine | None]] = []

    @classmethod
    def open(cls, path: str | None, append: bool = False) -> "ReportWriter":
        if path is None:
            return cls(sys.stdout, owns_stream=False)
        kinds: Counter[str] = Counter()
        lines = []
        if append:
            with open(path, "rb") as fh:
                for lineno, raw in enumerate(fh, 1):
                    # A torn write leaves a prefix of a line, which may itself
                    # be valid JSON: a line without its line end. No
                    # checkpoint covers it.
                    if not raw.endswith(b"\n"):
                        lines.append((math.inf, fh.tell(), None))
                    elif raw.strip():
                        try:
                            line = ReportLine(**json.loads(raw))
                            # a kind that is a list or object cannot be counted
                            kinds[line.kind] += 1
                            # every line but the summary, the last, carries its
                            # n, an int
                            at = math.inf if line.n is None else operator.index(line.n)
                            if at <= (lines[-1][0] if lines else -1):
                                raise ReportFormatError(
                                    f"{path}: line {lineno} at n={line.n} does not ascend in n")
                        except (ValueError, TypeError):
                            raise ReportFormatError(
                                f"{path}: line {lineno} is not a report line: {raw[:40]!r}"
                            ) from None
                        lines.append((at, fh.tell(), line))
        stream = open(path, "a" if append else "w", encoding="ascii", newline="")
        writer = cls(stream, owns_stream=True)
        writer.kinds.update(kinds)
        writer._lines = lines
        return writer

    def emit(self, line: ReportLine) -> None:
        _check_line(line)
        self.kinds[line.kind] += 1
        self._stream.write(render_line(line) + "\n")
        self._stream.flush()

    def emit_event(self, kind: str, n: int, m: int | None = None,
                   rejecting_prime: int | None = None) -> None:
        """Write one event's line. A "checkpoint" event writes none: it
        puts a report file on disk before the checkpoint that covers it.

        A "resume" event writes none either. It takes the lines the
        report held up to the checkpoint's n, all of which reached the
        disk before the checkpoint did, and refuses them unless their
        solution lines up to n, or up to _RESUME_SOLUTIONS_TO, are those
        exact arithmetic finds there and every solution and certified
        survivor line passes its re-check, since the summary counts what
        the report holds. Then, and only then, it cuts the report back to
        those lines: what lies past them, replays and a torn last line,
        the resumed scan writes again."""
        if kind == "checkpoint":
            if self._owns:
                os.fsync(self._stream.fileno())
            return
        if kind == "resume":
            kept: list[ReportLine] = [line for at, _, line in self._lines if at <= n]
            top = min(n, _RESUME_SOLUTIONS_TO)
            held = [(s.n, s.m) for s in kept if s.kind == "solution" and s.n <= top]
            exact = [(k, m) for k in range(top + 1)
                     if (m := math.isqrt(math.factorial(k) + 1)) ** 2 == math.factorial(k) + 1]
            if held != exact:
                raise ReportFormatError(f"{self._stream.name}: holds the solutions {held} "
                                        f"at n <= {top}, where the scan finds {exact}")
            try:
                for line in kept:
                    _check_line(line)
            except ReportIntegrityError as exc:
                raise ReportFormatError(f"{self._stream.name}: {exc}") from None
            cut = self._lines[len(kept):]
            if cut:
                self._stream.truncate(self._lines[len(kept) - 1][1] if kept else 0)
                print(f"search: {self._stream.name}: cut {len(cut)} line(s) past the checkpoint at "
                      f"n={n}{'' if cut[-1][2] else ', the last one torn'}", file=sys.stderr)
            self.kinds = Counter(line.kind for line in kept)
            return
        self.emit(ReportLine(kind=kind, n=n, m=m, rejecting_prime=rejecting_prime))

    def write_summary(self, scanned: int) -> None:
        kinds = self.kinds
        # every n the filter passed is settled as one of these three
        survivors = kinds["solution"] + kinds["survivor"] + kinds["unresolved"]
        counters = {
            "scanned": scanned,
            "rejected": scanned - survivors,
            "survivors": survivors,
            "solutions": kinds["solution"],
            "unresolved": kinds["unresolved"],
        }
        self.emit(ReportLine(kind="summary", counters=counters))

    def close(self) -> None:
        if self._owns and self._stream is not None:
            self._stream.close()


# ---------------------------------------------------------------------------
# argument parsing


class _UsageError(Exception):
    def __init__(self, message: str, usage: str) -> None:
        super().__init__(message)
        self.usage = usage


class _Refused(Exception):
    """Arguments the parser takes but a command refuses together."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message, self.format_usage())


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="brocard",
                     description="Exact search and verification for n! + 1 = m^2.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="scan a range of n with the residue filter")
    p.add_argument("--max-n", type=_positive_int, required=True,
                   help="scan n = 2 .. MAX_N")
    p.add_argument("--primes", type=_positive_int, default=DEFAULT_POOL_SIZE,
                   help="filter pool size (default %(default)s)")
    p.add_argument("--checkpoint", metavar="PATH", help="checkpoint file to write")
    p.add_argument("--resume", action="store_true",
                   help="resume from the checkpoint (the --report file is appended)")
    p.add_argument("--report", metavar="PATH",
                   help="JSONL report path (default stdout)")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("verify", help="exact verdict for a single n")
    p.add_argument("n", type=_nonneg_int)
    p.add_argument("--factor-structure", action="store_true",
                   help="show the 2a * 2^(e-1) b split (solutions only)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("epsilon", help="digits of sqrt(n!) - isqrt(n!)")
    p.add_argument("n", type=_nonneg_int)
    p.add_argument("--digits", type=_positive_int, default=40,
                   help="fractional digits to print (default %(default)s)")
    p.add_argument("--nine-run", action="store_true",
                   help="measure the leading run of 9s")
    p.set_defaults(handler=_cmd_epsilon)

    p = sub.add_parser("table", help="per-n table of k, defect, epsilon, ratio")
    p.add_argument("--from", dest="n_from", type=_nonneg_int, required=True)
    p.add_argument("--to", dest="n_to", type=_nonneg_int, required=True)
    p.add_argument("--digits", type=_positive_int, default=9,
                   help="digits for epsilon and ratio columns (default %(default)s)")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("polysys", help="integer points of the polynomial system")
    p.add_argument("--ymin", type=int, required=True)
    p.add_argument("--ymax", type=int, required=True)
    p.add_argument("--factorials", action="store_true",
                   help="keep only points with factorial x")
    p.set_defaults(handler=_cmd_polysys)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def _cmd_search(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        raise _Refused("--resume requires --checkpoint")
    # the summary counts what the report already holds: stdout holds nothing
    if args.resume and not args.report:
        raise _Refused("--resume requires --report")
    config = SearchConfig(
        max_n=args.max_n,
        pool_size=args.primes,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    writer = ReportWriter.open(args.report, append=args.resume)
    if writer.kinds["summary"]:
        writer.close()
        print(f"search: {args.report} already holds a summary, the scan is complete; "
              "nothing resumed", file=sys.stderr)
        return 0
    try:
        summary = run(config, on_event=writer.emit_event)
        if summary.completed:
            writer.write_summary(max(0, args.max_n - 1))
    finally:
        writer.close()
    lo, hi = summary.scanned_range
    print(
        f"scan {lo}..{hi} done: {len(summary.solutions)} solution(s), "
        f"{len(summary.unresolved)} unresolved, {summary.wall_time_s:.2f}s",
        file=sys.stderr,
    )
    return 0


def _notice_exact_work(command: str, n: int, d: int | None = None) -> None:
    """Admit exact work on n! at d digits (epsilon_lab.admit_exact), then,
    for a large n, say so in one stderr line, so a long silence has a reason."""
    admit_exact(n, d)
    if n >= _STALL_NOTICE_N:
        digits = math.floor(log_factorial(n, 10)) + 1
        span = next(span for bound, span in _STALL_SPANS if digits < bound)
        print(f"{command}: n={n}: exact arithmetic on n! ({digits} digits), "
              f"this can take {span}", file=sys.stderr, flush=True)


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _decimal_successor(digits: str) -> str:
    """str(v + 1) from digits = str(v), v >= 0: the trailing 9s turn to 0s
    and the digit before them goes up by one, or a 1 leads when all are 9s."""
    head = digits.rstrip("9")
    zeros = "0" * (len(digits) - len(head))
    if not head:
        return "1" + zeros
    return head[:-1] + str(int(head[-1]) + 1) + zeros


def _cmd_verify(args: argparse.Namespace) -> int:
    _notice_exact_work("verify", args.n)
    report = conditions.verify(args.n)
    # m_candidate = k + 1 (and m, at a solution) from k's digits: rendering
    # a big int is quadratic in its length, the successor linear; n! is
    # k(k + 2) exactly at a solution, so product_matches is is_solution
    k = decimal_str(report.k)
    m_candidate = _decimal_successor(k)
    print(f"n: {report.n}")
    print(f"k: {k}")
    print(f"m_candidate: {m_candidate}")
    print(f"k_even: {_bool_str(report.k % 2 == 0)}")
    print(f"defect: {decimal_str(report.defect)}")
    print(f"product_matches: {_bool_str(report.is_solution)}")
    print(f"is_solution: {_bool_str(report.is_solution)}")
    print(f"m: {m_candidate if report.is_solution else 'none'}")
    if args.factor_structure:
        if report.is_solution:
            fs = conditions.factor_structure(args.n)
            print(f"half_even: {2 * fs.a} = 2 * {fs.a}")
            print(f"half_pow: {fs.b << (fs.e - 1)} = 2^{fs.e - 1} * {fs.b}")
            print(f"a: {fs.a}")
            print(f"b: {fs.b}")
            print(f"e: {fs.e}")
        else:
            print("factor_structure: undefined (not a solution)")
    return 0


def _cmd_epsilon(args: argparse.Namespace) -> int:
    d = args.digits
    _notice_exact_work("epsilon", args.n, max(d, NINE_RUN_START) if args.nine_run else d)
    root = FactorialRoot(args.n)
    # nine_run first: at d <= NINE_RUN_START its root serves epsilon too
    profile = nine_run(root) if args.nine_run else None
    print(f"n: {args.n}")
    print(f"epsilon: {epsilon_digits(root, d)}")
    if profile is not None:
        print(f"nine_run: {profile.nine_run}")
        # a run that fills every digit computed is a lower bound
        print(f"nine_run_exact: {_bool_str(profile.nine_run < profile.digits_computed)}")
        print(f"digits_computed: {profile.digits_computed}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n_from > args.n_to:
        raise _Refused("--from must not exceed --to")
    d = args.digits
    _notice_exact_work("table", args.n_to, d + RATIO_GUARD)
    header = ["n", "k", "parity", "defect", "epsilon", "ratio", "solution", "note"]
    rows = [header]
    for n in range(args.n_from, args.n_to + 1):
        rep = conditions.verify(n)
        # the ratio takes the row's one root, at d + RATIO_GUARD digits
        root = FactorialRoot(n, rep.k * rep.k + rep.defect)
        try:
            ratio = str(k_ratio_digits(root, d))
        except ValueError:
            ratio = "-"
        eps = str(epsilon_digits(root, d))
        note = ""
        if n in MISQUOTED_K and MISQUOTED_K[n] != rep.k:
            note = f"k corrected (misquoted as {MISQUOTED_K[n]} in circulated tables)"
        rows.append([
            str(n), decimal_str(rep.k), "odd" if rep.k % 2 else "even",
            decimal_str(rep.defect), eps, ratio,
            "yes" if rep.is_solution else "no", note,
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        cells = [c.rjust(w) if i < 6 else c.ljust(w)
                 for i, (c, w) in enumerate(zip(row, widths))]
        print("  ".join(cells).rstrip())
    return 0


def _cmd_polysys(args: argparse.Namespace) -> int:
    if args.ymin > args.ymax:
        raise _Refused("--ymin must not exceed --ymax")
    from .poly_system import solve_window  # only this command needs it

    for point in solve_window(args.ymin, args.ymax, factorials_only=args.factorials):
        if args.factorials:
            n = is_factorial(point.x)
            print(f"x={point.x} y={point.y} n={n} m={point.y + 1}")
        else:
            print(f"x={point.x} y={point.y}")
    return 0


# ---------------------------------------------------------------------------
# dispatch

# Each failure a command reports, as (exception classes, stderr prefix,
# exit code); the first row that matches prints "prefix: message".
_FAILURES = (
    (_Refused, "error", 1),
    (ReportIntegrityError, "report integrity", 2),
    (ReportFormatError, "report", 1),
    (CheckpointError, "checkpoint", 3),
    ((ShardError, StreamError), "search", 2),
    ((BitBudgetError, CeilingError), "limit", 2),
    (OSError, "io", 2),
)


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.write(exc.usage)
        return 1
    except SystemExit as exc:  # --help, --version
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Exception as exc:
        for classes, prefix, code in _FAILURES:
            if isinstance(exc, classes):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        import traceback  # only an internal error needs it

        traceback.print_exc()
        return 2


def main() -> None:
    sys.exit(dispatch())
