from __future__ import annotations

import io
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brocard import cli_reporting, conditions, epsilon_lab, exact_arith
from brocard.cli_reporting import (
    ReportIntegrityError,
    ReportLine,
    ReportWriter,
    dispatch,
    render_line,
)

# ---------------------------------------------------------------------------
# report lines


def test_render_line_key_order_and_compactness():
    assert render_line(ReportLine(kind="solution", n=4, m=5)) == \
        '{"kind":"solution","n":4,"m":5}'
    assert render_line(ReportLine(kind="survivor", n=9)) == '{"kind":"survivor","n":9}'
    counters = {"scanned": 99, "rejected": 96, "survivors": 3, "solutions": 3,
                "unresolved": 0}
    assert render_line(ReportLine(kind="summary", counters=counters)) == \
        '{"kind":"summary","counters":{"scanned":99,"rejected":96,"survivors":3,' \
        '"solutions":3,"unresolved":0}}'
    assert render_line(ReportLine(kind="rejected", n=6, rejecting_prime=11)) == \
        '{"kind":"rejected","n":6,"rejecting_prime":11}'


def _emit(line: ReportLine, stream: io.StringIO | None = None) -> None:
    ReportWriter(io.StringIO() if stream is None else stream, owns_stream=False).emit(line)


def test_emit_report_verifies_solution_lines():
    good = io.StringIO()
    _emit(ReportLine(kind="solution", n=7, m=71), good)
    assert good.getvalue() == '{"kind":"solution","n":7,"m":71}\n'
    for bad in (ReportLine(kind="solution", n=7, m=70), ReportLine(kind="solution", n=7),
                ReportLine(kind="solution", n=10**9, m=3)):
        stream = io.StringIO()
        with pytest.raises(ReportIntegrityError):
            _emit(bad, stream)
        assert stream.getvalue() == ""


def test_emit_report_rechecks_rejecting_primes():
    good = io.StringIO()
    _emit(ReportLine(kind="survivor", n=10, rejecting_prime=13), good)
    assert good.getvalue() == '{"kind":"survivor","n":10,"rejecting_prime":13}\n'
    # composite, at or below n, dividing 10! + 1, a residue, not the first
    for q in (15, 7, 11, 17, 19):
        with pytest.raises(ReportIntegrityError):
            _emit(ReportLine(kind="survivor", n=10, rejecting_prime=q))
    # a solution has no rejecting prime at all
    with pytest.raises(ReportIntegrityError):
        _emit(ReportLine(kind="survivor", n=7, rejecting_prime=11))


def test_writer_counts_and_summary(tmp_path):
    path = str(tmp_path / "out.jsonl")
    writer = ReportWriter.open(path)
    writer.emit_event("solution", 4, 5)
    writer.emit_event("survivor", 9)
    writer.emit_event("unresolved", 50)
    writer.write_summary(scanned=99)
    writer.close()
    lines = (tmp_path / "out.jsonl").read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["counters"] == {
        "scanned": 99, "rejected": 96, "survivors": 3, "solutions": 1,
        "unresolved": 1,
    }


def test_writer_append_seeds_counters(tmp_path):
    path = str(tmp_path / "out.jsonl")
    writer = ReportWriter.open(path)
    writer.emit_event("solution", 4, 5)
    writer.close()
    writer = ReportWriter.open(path, append=True)
    writer.emit_event("solution", 5, 11)
    writer.write_summary(scanned=10)
    writer.close()
    lines = (tmp_path / "out.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[-1])["counters"]["solutions"] == 2


def test_writer_append_refuses_a_kind_that_is_not_a_name(tmp_path):
    # valid JSON, but no report line: its kind cannot be counted
    path = tmp_path / "out.jsonl"
    path.write_bytes(b'{"kind":"survivor","n":9}\n{"kind":["summary"]}\n')
    with pytest.raises(cli_reporting.ReportFormatError, match="line 2 is not a report line"):
        ReportWriter.open(str(path), append=True)


# ---------------------------------------------------------------------------
# CLI dispatch


def test_search_cli_end_to_end(tmp_path, capsys):
    report = tmp_path / "scan.jsonl"
    code = dispatch(["search", "--max-n", "100", "--report", str(report)])
    assert code == 0
    lines = [json.loads(raw) for raw in report.read_text().splitlines()]
    assert lines[:3] == [
        {"kind": "solution", "n": 4, "m": 5},
        {"kind": "solution", "n": 5, "m": 11},
        {"kind": "solution", "n": 7, "m": 71},
    ]
    assert lines[3]["counters"]["scanned"] == 99
    assert "scan 2..100 done" in capsys.readouterr().err


def test_search_cli_survivor_lines_carry_rejecting_prime(tmp_path, capsys):
    from brocard.conditions import is_certificate

    report = tmp_path / "scan.jsonl"
    assert dispatch(["search", "--max-n", "2000", "--primes", "2",
                     "--report", str(report)]) == 0
    lines = [json.loads(raw) for raw in report.read_text().splitlines()]
    survivors = [o for o in lines if o["kind"] == "survivor"]
    assert len(survivors) > 100
    assert all(is_certificate(o["n"], o["rejecting_prime"]) for o in survivors)
    assert lines[-1]["counters"]["unresolved"] == 0
    capsys.readouterr()


@pytest.mark.parametrize("max_n", ["100000", "100050"])
def test_resume_of_a_finished_scan_writes_nothing(tmp_path, capsys, max_n):
    # the last checkpoint is at 100000: the scan's end, or 50 n short of it
    report, ck = tmp_path / "scan.jsonl", tmp_path / "scan.ck"
    args = ["search", "--max-n", max_n, "--checkpoint", str(ck), "--report", str(report)]
    assert dispatch(args) == 0
    before, ck_before = report.read_bytes(), ck.read_bytes()
    capsys.readouterr()
    assert dispatch(args + ["--resume"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "already holds a summary" in err
    assert report.read_bytes() == before and ck.read_bytes() == ck_before
    assert before.count(b'"kind":"summary"') == 1


def test_resumed_search_names_the_range_it_scanned(tmp_path, capsys):
    # a scan stopped at its checkpoint (the report is discarded) and
    # resumed scans only the rest, and says so
    report, ck = tmp_path / "scan.jsonl", tmp_path / "scan.ck"
    args = ["search", "--max-n", "100050", "--checkpoint", str(ck), "--report", str(report)]
    assert dispatch(args) == 0
    assert "scan 2..100050 done:" in capsys.readouterr().err
    report.write_bytes(b"")
    assert dispatch(args + ["--resume"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("scan 100001..100050 done: 0 solution(s), 0 unresolved, ")


def test_search_cli_writes_report_to_stdout(capsys):
    assert dispatch(["search", "--max-n", "10"]) == 0
    out = capsys.readouterr().out
    kinds = [json.loads(raw)["kind"] for raw in out.splitlines()]
    assert kinds == ["solution", "solution", "solution", "summary"]


def test_verify_cli(capsys):
    assert dispatch(["verify", "7"]) == 0
    out = capsys.readouterr().out
    assert "k: 70" in out
    assert "is_solution: true" in out
    assert "m: 71" in out
    assert dispatch(["verify", "6", "--factor-structure"]) == 0
    out = capsys.readouterr().out
    assert "is_solution: false" in out
    assert "undefined" in out
    assert dispatch(["verify", "7", "--factor-structure"]) == 0
    out = capsys.readouterr().out
    assert "half_even: 70 = 2 * 35" in out
    assert "half_pow: 72 = 2^3 * 9" in out
    # k = 4 is 0 mod 4, so the half that is 2 mod 4 is k + 2
    assert dispatch(["verify", "4", "--factor-structure"]) == 0
    out = capsys.readouterr().out
    assert "half_even: 6 = 2 * 3\nhalf_pow: 4 = 2^2 * 1\n" in out


# values ending in a run of 9s, so the successor carries
_NINE_TAILED = st.builds(lambda head, j: head * 10**j + 10**j - 1,
                         st.integers(0, 10**20), st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(v=st.integers(0, 10**60) | _NINE_TAILED)
@example(v=0)
@example(v=9)
@example(v=10**40 - 1)
def test_decimal_successor_is_str_of_the_next_int(v):
    assert cli_reporting._decimal_successor(str(v)) == str(v + 1)


def test_verify_cli_matches_oracle(capsys):
    # every line from math.factorial and math.isqrt alone; k ends in 9 at
    # n = 14 and 41, where m_candidate carries
    carried = []
    for n in range(61):
        f = math.factorial(n)
        k = math.isqrt(f)
        m = math.isqrt(f + 1)
        solution = m * m == f + 1
        if k % 10 == 9:
            carried.append(n)
        assert dispatch(["verify", str(n)]) == 0
        assert capsys.readouterr().out == (
            f"n: {n}\nk: {k}\nm_candidate: {k + 1}\nk_even: {str(k % 2 == 0).lower()}\n"
            f"defect: {f - k * k}\nproduct_matches: {str(k * (k + 2) == f).lower()}\n"
            f"is_solution: {str(solution).lower()}\nm: {m if solution else 'none'}\n")
    assert {14, 41} <= set(carried)


@pytest.mark.parametrize("n", [41, 7])
def test_verify_renders_k_and_defect_only(monkeypatch, capsys, n):
    # m_candidate, and m at a solution, come from k's digits: two big ints
    # rendered per verify, not three or four
    rendered = []

    def counting(v):
        rendered.append(v)
        return exact_arith.decimal_str(v)

    monkeypatch.setattr(cli_reporting, "decimal_str", counting)
    assert dispatch(["verify", str(n)]) == 0
    capsys.readouterr()
    f = math.factorial(n)
    k = math.isqrt(f)
    assert rendered == [k, f - k * k]


def test_epsilon_cli(monkeypatch, capsys):
    assert dispatch(["epsilon", "7", "--digits", "10"]) == 0
    assert "epsilon: 0.9929573971" in capsys.readouterr().out
    assert dispatch(["epsilon", "7", "--nine-run"]) == 0
    out = capsys.readouterr().out
    assert "nine_run: 2" in out
    assert "nine_run_exact: true" in out
    # a cap of 2 digits, both 9s: the run fills them and is a lower bound
    monkeypatch.setattr(epsilon_lab, "NINE_RUN_CAP", 2)
    assert dispatch(["epsilon", "7", "--nine-run"]) == 0
    assert capsys.readouterr().out.endswith(
        "nine_run: 2\nnine_run_exact: false\ndigits_computed: 2\n")


def test_table_cli_flags_misquoted_rows(capsys):
    assert dispatch(["table", "--from", "1", "--to", "11", "--digits", "9"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    row8 = next(l for l in lines if l.lstrip().startswith("8 "))
    row11 = next(l for l in lines if l.lstrip().startswith("11 "))
    assert "misquoted as 26" in row8 and " 200" in row8
    assert "misquoted as 6371" in row11 and " 6317" in row11
    for n in (4, 5, 7):
        row = next(l for l in lines if l.lstrip().startswith(f"{n} "))
        assert "yes" in row


# ---------------------------------------------------------------------------
# epsilon and table against an oracle built from math.factorial, math.isqrt
# and fractions.Fraction alone

_ORACLE_NOTES = {8: "k corrected (misquoted as 26 in circulated tables)",
                 11: "k corrected (misquoted as 6371 in circulated tables)"}


def _oracle_scaled(f: int, d: int) -> int:
    """floor(sqrt(f) * 10**d)."""
    return math.isqrt(f * 10 ** (2 * d))


def _oracle_fraction(f: int, d: int) -> str:
    """The first d fractional digits of sqrt(f), as printed."""
    return f"0.{_oracle_scaled(f, d) % 10**d:0{d}d}"


def _oracle_ratio(f: int, d: int) -> str:
    k = math.isqrt(f)
    if f == k * k:
        return "-"
    if f - k * k == 2 * k:
        return f"{k}.{'0' * d}"
    # eps lies in [lo, lo + 10**-p), and x**2 / (2 (1 - x)) rises on [0, 1)
    p = d + 60
    lo = Fraction(_oracle_scaled(f, p) % 10**p, 10**p)
    ends = {math.floor(x * x / (2 * (1 - x)) * 10**d) for x in (lo, lo + Fraction(1, 10**p))}
    assert len(ends) == 1
    whole, frac = divmod(ends.pop(), 10**d)
    return f"{whole}.{frac:0{d}d}"


def _oracle_table(n_from: int, n_to: int, d: int) -> str:
    rows = [["n", "k", "parity", "defect", "epsilon", "ratio", "solution", "note"]]
    for n in range(n_from, n_to + 1):
        f = math.factorial(n)
        k = math.isqrt(f)
        rows.append([str(n), str(k), "odd" if k % 2 else "even", str(f - k * k),
                     _oracle_fraction(f, d), _oracle_ratio(f, d),
                     "yes" if f - k * k == 2 * k else "no", _ORACLE_NOTES.get(n, "")])
    widths = [max(len(row[i]) for row in rows) for i in range(8)]
    return "".join("  ".join([c.rjust(w) for c, w in zip(row[:6], widths)]
                             + [c.ljust(w) for c, w in zip(row[6:], widths[6:])]).rstrip() + "\n"
                   for row in rows)


@pytest.mark.parametrize("d", [1, 9, 30])
def test_table_matches_an_oracle(capsys, d):
    assert dispatch(["table", "--from", "0", "--to", "60", "--digits", str(d)]) == 0
    assert capsys.readouterr().out == _oracle_table(0, 60, d)


@pytest.mark.parametrize("d", [1, 40, 64, 100])
def test_epsilon_nine_run_matches_an_oracle(monkeypatch, capsys, d):
    # one n! per command, and one root unless --digits is past the
    # nine-run's 64, where the same n! takes a second
    built, roots = [], []
    monkeypatch.setattr(epsilon_lab, "factorial_exact",
                        lambda n: built.append(n) or math.factorial(n))
    monkeypatch.setattr(epsilon_lab, "isqrt", lambda x: roots.append(x) or math.isqrt(x))
    for n in (0, 7, 9, 1000):
        built.clear()
        roots.clear()
        assert dispatch(["epsilon", str(n), "--digits", str(d), "--nine-run"]) == 0
        f = math.factorial(n)
        digits = 64
        while True:
            frac = _oracle_fraction(f, digits)[2:]
            run = len(frac) - len(frac.lstrip("9"))
            if run < digits:
                break
            digits *= 2
        assert capsys.readouterr().out == (
            f"n: {n}\nepsilon: {_oracle_fraction(f, d)}\nnine_run: {run}\n"
            f"nine_run_exact: true\ndigits_computed: {digits}\n")
        assert built == [n]
        assert len(roots) == (1 if d <= 64 else 2)


@pytest.mark.parametrize("argv", [["verify", "40"], ["epsilon", "40", "--nine-run"],
                                  ["table", "--from", "38", "--to", "40"]])
def test_exact_commands_give_notice_past_the_threshold(monkeypatch, capsys, argv):
    # below the threshold nothing goes to stderr; from it on, one line with
    # n and the digit count of n!, and stdout keeps its bytes
    assert dispatch(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    monkeypatch.setattr(cli_reporting, "_STALL_NOTICE_N", 40)
    assert dispatch(argv) == 0
    noisy = capsys.readouterr()
    assert noisy.out == quiet.out
    assert noisy.err == (f"{argv[0]}: n=40: exact arithmetic on n! "
                         f"({len(str(math.factorial(40)))} digits), this can take minutes\n")
    # past the exact ceiling the command fails at once, with no notice
    assert dispatch(["verify", str(cli_reporting.EXACT_FACTORIAL_CEILING + 1)]) == 2
    assert capsys.readouterr().err.startswith("limit: ")


def test_polysys_cli(capsys):
    assert dispatch(["polysys", "--ymin", "-4", "--ymax", "-3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["x=8 y=-4", "x=3 y=-3"]
    assert dispatch(["polysys", "--ymin", "0", "--ymax", "100", "--factorials"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x=24 y=4 n=4 m=5", "x=120 y=10 n=5 m=11", "x=5040 y=70 n=7 m=71",
    ]


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(capsys):
    assert dispatch([]) == 1
    assert dispatch(["search"]) == 1  # --max-n required
    assert dispatch(["search", "--max-n", "nope"]) == 1
    assert dispatch(["verify", "-3"]) == 1
    assert dispatch(["epsilon", "7", "--digits", "0"]) == 1
    assert dispatch(["nonsense"]) == 1
    assert dispatch(["search", "--max-n", "10", "--threads", "2"]) == 1  # flag removed
    assert dispatch(["epsilon", "7", "--nine-run", "--cap", "5"]) == 1  # flag removed
    err = capsys.readouterr().err
    assert "usage:" in err


def test_usage_error_resume_without_checkpoint(capsys):
    assert dispatch(["search", "--max-n", "10", "--resume"]) == 1
    assert "--resume requires --checkpoint" in capsys.readouterr().err


def test_usage_error_resume_without_report(tmp_path, capsys):
    # the summary of a resumed scan counts the lines its report already
    # holds; stdout holds none, so its counts would be false
    ck = tmp_path / "scan.ck"
    assert dispatch(["search", "--max-n", "3000", "--checkpoint", str(ck), "--resume"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --resume requires --report\n"
    assert not ck.exists()


def test_resume_with_torn_report_line_exits_1(tmp_path, capsys):
    report, ck = tmp_path / "scan.jsonl", str(tmp_path / "scan.ck")
    args = ["search", "--max-n", "1000", "--primes", "8", "--checkpoint", ck,
            "--report", str(report)]
    assert dispatch(args) == 0
    lines = report.read_bytes().splitlines(keepends=True)
    torn = b"".join(lines[:-1]) + lines[-1][:7]  # killed mid-write
    report.write_bytes(torn)
    capsys.readouterr()
    assert dispatch(args + ["--resume"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{report}: line {len(lines)} is not a report line" in err
    assert report.read_bytes() == torn


def test_resume_onto_a_line_without_its_line_end_exits_1(tmp_path, capsys):
    # a killed writer can leave a whole line without its "\n": valid JSON,
    # onto which the resumed scan would append its next line
    report, ck = tmp_path / "scan.jsonl", str(tmp_path / "scan.ck")
    args = ["search", "--max-n", "1000", "--primes", "8", "--checkpoint", ck,
            "--report", str(report)]
    assert dispatch(args) == 0
    lines = report.read_bytes().splitlines(keepends=True)
    cut = b"".join(lines[:-1])[:-1]  # the summary gone, and the line end before it
    json.loads(cut.splitlines()[-1])
    report.write_bytes(cut)
    capsys.readouterr()
    assert dispatch(args + ["--resume"]) == 1
    err = capsys.readouterr().err
    assert err == f"report: {report}: line {len(lines) - 1} has no line end\n"
    assert report.read_bytes() == cut


def test_semantic_usage_errors(capsys):
    assert dispatch(["table", "--from", "5", "--to", "2"]) == 1
    assert capsys.readouterr() == ("", "error: --from must not exceed --to\n")
    assert dispatch(["polysys", "--ymin", "2", "--ymax", "1"]) == 1
    assert capsys.readouterr() == ("", "error: --ymin must not exceed --ymax\n")


def test_help_exits_0(capsys):
    assert dispatch(["--help"]) == 0
    assert "search" in capsys.readouterr().out
    assert dispatch(["search", "--help"]) == 0
    capsys.readouterr()


def _refuse_to_build(n):
    raise AssertionError(f"{n}! built")


def test_resource_errors_exit_2(tmp_path, capsys, monkeypatch):
    # unwritable report path
    assert dispatch(["search", "--max-n", "10",
                     "--report", str(tmp_path / "no" / "dir.jsonl")]) == 2
    capsys.readouterr()
    # bit budget exhaustion surfaces as a limit error
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", 50)
    assert dispatch(["epsilon", "9", "--digits", "100"]) == 2
    capsys.readouterr()


def test_a_survivor_whose_prime_is_not_its_certificate_exits_2(tmp_path, monkeypatch,
                                                                capsys):
    verify = conditions.verify

    def forging(n, *, certify=False):
        report = verify(n, certify=certify)
        q = report.rejecting_prime
        return report if q is None else report._replace(rejecting_prime=q + 2)

    monkeypatch.setattr(conditions, "verify", forging)
    report = tmp_path / "scan.jsonl"
    assert dispatch(["search", "--max-n", "2000", "--primes", "2",
                     "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith(
        "report integrity: rejecting_prime does not certify the survivor: ")
    kinds = {json.loads(raw)["kind"] for raw in report.read_text().splitlines()}
    assert kinds <= {"solution"}


def test_an_internal_error_prints_its_traceback_and_exits_2(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli_reporting, "_cmd_verify", broken)
    assert dispatch(["verify", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("RuntimeError: injected fault\n")


@pytest.mark.parametrize("argv", [["epsilon", "4000000"],
                                  ["table", "--from", "4000000", "--to", "4000000"],
                                  ["table", "--from", "1", "--to", "4000000"],
                                  ["epsilon", "366", "--digits", "1", "--nine-run"],
                                  ["table", "--from", "401", "--to", "401", "--digits", "9"]])
def test_over_budget_commands_refuse_before_notice_and_factorial(monkeypatch, capsys, argv):
    # each command is past a 3000-bit budget at the largest precision it
    # uses, though the last two are not at --digits: 366! at nine_run's 64
    # digits, and 401! at the ratio's --digits + 10. The command exits with
    # the limit alone, before its stall notice, a table row or n! itself
    monkeypatch.setattr(exact_arith, "BIT_BUDGET", 3000)
    monkeypatch.setattr(conditions, "factorial_exact", _refuse_to_build)
    monkeypatch.setattr(epsilon_lab, "factorial_exact", _refuse_to_build)
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("limit: ")


@pytest.mark.parametrize("argv,digits", [(["epsilon", "4000000", "--nine-run"], 64),
                                         (["table", "--from", "4000000", "--to", "4000000"],
                                          19)],
                         ids=["epsilon --nine-run", "table"])
def test_limit_line_names_the_refused_root(capsys, argv, digits):
    # refused up front by admit_exact, not by sqrt_digits: the line says
    # which root, at how many digits, is past the budget
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("limit: root of a ")
    assert f"-bit number at {digits} digits" in err
    assert "sqrt_digits" not in err


def test_limits_ignore_the_environment(monkeypatch, capsys):
    assert dispatch(["epsilon", "5"]) == 0
    clean = capsys.readouterr()
    monkeypatch.setenv("BROCARD_BIT_BUDGET", "abc")
    assert dispatch(["epsilon", "5"]) == 0
    assert capsys.readouterr() == clean


def test_checkpoint_mismatch_exits_3(tmp_path, capsys):
    from brocard.factorial_engine import build_prime_pool, seed_state
    from brocard.search_engine import save_checkpoint

    ck = str(tmp_path / "scan.ck")
    pool = build_prime_pool(100, 4)
    save_checkpoint(seed_state(pool, 0), pool, ck)
    report = tmp_path / "r.jsonl"
    report.write_bytes(b"")
    # same checkpoint, different pool size: mismatch
    assert dispatch(["search", "--max-n", "100", "--primes", "5",
                     "--checkpoint", ck, "--resume", "--report", str(report)]) == 3
    # different scan ceiling: also a mismatch
    assert dispatch(["search", "--max-n", "200", "--primes", "4",
                     "--checkpoint", ck, "--resume", "--report", str(report)]) == 3
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("stop_n", [1000, 2900], ids=["seed side", "top side"])
def test_checkpoint_with_a_wrong_residue_exits_3(tmp_path, capsys, stop_n):
    # one residue changed and the CRC recomputed: the checksum holds, but
    # the load re-derives n! mod the pool, from n (n = 1000) or from the
    # top of the pool (n = 2900), finds the file is not the one written
    # there, and refuses before any scan work
    import zlib

    from brocard.search_engine import SearchConfig, run

    ck, report = tmp_path / "scan.ck", tmp_path / "r.jsonl"
    run(SearchConfig(max_n=3000, pool_size=8, checkpoint_path=str(ck), stop_n=stop_n))
    report.write_bytes(b"")
    lines = ck.read_bytes().split(b"\n")
    p, r = map(int, lines[7].split(b","))
    lines[7] = b"%d,%d" % (p, r % (p - 1) + 1)
    body = b"\n".join(lines[:-2]) + b"\n"
    ck.write_bytes(body + b"crc32=%08x\n" % zlib.crc32(body))
    assert dispatch(["search", "--max-n", "3000", "--primes", "8", "--checkpoint", str(ck),
                     "--report", str(report), "--resume"]) == 3
    err = capsys.readouterr().err
    assert err == f"checkpoint: {ck}: not the checkpoint this scan writes at n={stop_n}\n"
    assert report.read_bytes() == b""


@pytest.mark.parametrize("n_line,message", [
    ("n=5\u00e9".encode(), "unreadable body: 'ascii' codec can't decode byte 0xc3"),
    (b"n=" + b"1" * 5000, "unreadable body: Exceeds the limit (4300"),
    (b"count=1000", "bad field line 'count=1000'"),
], ids=["non-ASCII byte", "number past int's digit limit", "bad field line"])
def test_unreadable_checkpoint_body_exits_3(tmp_path, capsys, n_line, message):
    # the checksum holds over a body no checkpoint writer makes: a byte
    # that is not ASCII, a number longer than int() reads from a string,
    # or a field line under another name
    import zlib

    from brocard.factorial_engine import build_prime_pool
    from brocard.search_engine import CheckpointError, SearchConfig, load_checkpoint, run

    ck, report = tmp_path / "scan.ck", tmp_path / "r.jsonl"
    run(SearchConfig(max_n=3000, pool_size=8, checkpoint_path=str(ck), stop_n=1000))
    report.write_bytes(b"")
    lines = ck.read_bytes().split(b"\n")
    lines[2] = n_line
    body = b"\n".join(lines[:-2]) + b"\n"
    ck.write_bytes(body + b"crc32=%08x\n" % zlib.crc32(body))
    with pytest.raises(CheckpointError, match=re.escape(f"{ck}: {message}")) as refusal:
        load_checkpoint(str(ck), build_prime_pool(3000, 8))
    assert dispatch(["search", "--max-n", "3000", "--primes", "8", "--checkpoint", str(ck),
                     "--report", str(report), "--resume"]) == 3
    assert capsys.readouterr().err == f"checkpoint: {refusal.value}\n"
    assert report.read_bytes() == b""


def test_missing_checkpoint_resume_exits_2(tmp_path, capsys):
    report = tmp_path / "r.jsonl"
    report.write_bytes(b"")
    assert dispatch(["search", "--max-n", "10", "--checkpoint",
                     str(tmp_path / "none.ck"), "--resume",
                     "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io: ") and "none.ck" in err


def test_resume_into_missing_report_exits_2(tmp_path, capsys, monkeypatch):
    # the summary would count only the resumed segment, so a resume
    # refuses a missing report before any scan work and creates no file
    from brocard.search_engine import SearchConfig, run

    ck, report = str(tmp_path / "scan.ck"), tmp_path / "gone.jsonl"
    run(SearchConfig(max_n=3000, pool_size=8, checkpoint_path=ck, stop_n=1000))
    monkeypatch.setattr(cli_reporting, "run", lambda *args, **kwargs: pytest.fail("scanned"))
    assert dispatch(["search", "--max-n", "3000", "--primes", "8", "--checkpoint", ck,
                     "--report", str(report), "--resume"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("io: ") and "gone.jsonl" in err
    assert err.count("\n") == 1 and not report.exists()
