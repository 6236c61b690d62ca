"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
and timings inline.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter

from brocard import search_engine
from brocard.conditions import verify
from brocard.epsilon_lab import FactorialRoot, check_f_monotone, epsilon_digits, nine_run
from brocard.exact_arith import decimal_str, isqrt, legendre
from brocard.factorial_engine import build_prime_pool, seed_state
from brocard.poly_system import LatticePoint, eval_system, solve_window
from brocard.qr_filter import nonresidue_bits, passes, scan_piece, table_ranks
from brocard.cli_reporting import ReportWriter, dispatch
from brocard.search_engine import SearchConfig, run

KNOWN_SOLUTIONS = {4: 5, 5: 11, 7: 71}

# reference fractional digit prefixes for eps = sqrt(n!) - isqrt(n!);
# published tables round the last digit, this artifact truncates, so
# agreement is required only to one unit in the last printed digit
REFERENCE_EPSILON = {
    2: "414213562",
    3: "449489743",
    4: "898979486",
    5: "95445115",
    6: "83281573",
    7: "9929573972",
    8: "7984064",
    9: "3952191",
    10: "940944",
    11: "974359",
}

# circulated claim for the nine-run of eps at n = 100000 (criterion 9
# logs the computed value next to it; equality is not required)
CIRCULATED_NINE_RUN_CLAIM = 228287


def _verdict(num: int, ok: bool, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_search_to_100(tmp_path):
    t0 = time.perf_counter()
    report = tmp_path / "c1.jsonl"
    code = dispatch(["search", "--max-n", "100", "--report", str(report)])
    lines = [json.loads(raw) for raw in report.read_text().splitlines()]
    pairs = {(l["m"], l["n"]) for l in lines if l["kind"] == "solution"}
    elapsed = time.perf_counter() - t0
    ok = code == 0 and pairs == {(5, 4), (11, 5), (71, 7)} and elapsed < 1.0
    _verdict(1, ok, t0, f"solutions (m,n) = {sorted(pairs)}")


def test_criterion_2_search_to_1e6(tmp_path):
    t0 = time.perf_counter()
    report = tmp_path / "c2.jsonl"
    code = dispatch(["search", "--max-n", "1000000", "--primes", "48",
                     "--report", str(report)])
    lines = [json.loads(raw) for raw in report.read_text().splitlines()]
    solutions = {l["n"] for l in lines if l["kind"] == "solution"}
    unresolved = [l["n"] for l in lines if l["kind"] == "unresolved"]
    counters = lines[-1]["counters"]
    elapsed = time.perf_counter() - t0
    ok = (code == 0 and solutions == {4, 5, 7} and unresolved == []
          and counters["unresolved"] == 0 and counters["scanned"] == 999999
          and elapsed < 60.0)
    _verdict(2, ok, t0,
             f"solutions n = {sorted(solutions)}, unresolved = {unresolved}, "
             f"scan of 999999 values")


def test_criterion_3_theorem_suite_to_2000():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 2001):
        rep = verify(n)
        f = math.factorial(n)
        k = rep.k
        if not 0 <= rep.defect <= 2 * k:
            bad.append((n, "defect range"))
        if (rep.defect == 2 * k) != (n in KNOWN_SOLUTIONS):
            bad.append((n, "solution set"))
        if not f <= k * (k + 2):
            bad.append((n, "upper bound"))
        if (f < k * (k + 2)) != (n not in KNOWN_SOLUTIONS):
            bad.append((n, "strictness"))
        if not k * k - 1 < f:
            bad.append((n, "k^2 - 1 bound"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _verdict(3, ok, t0, f"n = 2..2000 exhaustive, violations = {bad[:3]}")


def test_criterion_4_epsilon_table_and_corrections(capsys):
    t0 = time.perf_counter()
    mismatches = []
    for n, ref in REFERENCE_EPSILON.items():
        d = len(ref)
        ours = epsilon_digits(FactorialRoot(n), d).mantissa
        if abs(ours - int(ref)) > 1:
            mismatches.append((n, ours, ref))
    code = dispatch(["table", "--from", "1", "--to", "11"])
    out = capsys.readouterr().out
    flagged = out.count("misquoted") == 2 and "misquoted as 26" in out \
        and "misquoted as 6371" in out
    elapsed = time.perf_counter() - t0
    ok = code == 0 and not mismatches and flagged and elapsed < 5.0
    with capsys.disabled():
        _verdict(4, ok, t0,
                 f"10 digit prefixes within 1 ulp (bad: {mismatches}), "
                 f"both k misprints flagged = {flagged}")


def test_criterion_5_f_monotone_to_1e4():
    t0 = time.perf_counter()
    result = check_f_monotone(1, 10**4, 12)
    elapsed = time.perf_counter() - t0
    ok = result is True and elapsed < 30.0
    _verdict(5, ok, t0, "f strictly increasing and below 1 on k = 1..10000 at 12 digits")


def test_criterion_6_polynomial_window():
    t0 = time.perf_counter()
    import numpy as np

    # brute force oracle over the full rectangle; int64 is safe here:
    # |r1| <= y^4 + ... <= ~1.7e9 + 3 * (5e4)^2 = 7.5e9 < 2^63
    xs = np.arange(-50000, 50001, dtype=np.int64)
    brute = []
    for y in range(-200, 201):
        c0 = y**4 + 4 * y**3 + 4 * y**2
        c1 = 2 * y**2 + 4 * y
        r1 = c0 + c1 * xs - 3 * xs * xs
        r2 = (y**3 + 3 * y**2 + 2 * y) - (y + 1) * xs
        for j in np.flatnonzero((r1 == 0) & (r2 == 0)):
            brute.append((int(xs[j]), y))
    solved = [(p.x, p.y) for p in solve_window(-200, 200)
              if -50000 <= p.x <= 50000]
    window_match = sorted(brute) == sorted(solved)

    facts = [(p.x, p.y) for p in solve_window(0, 10**4, factorials_only=True)]
    facts_match = facts == [(24, 4), (120, 10), (5040, 70)]
    elapsed = time.perf_counter() - t0
    ok = window_match and facts_match and elapsed < 60.0
    _verdict(6, ok, t0,
             f"{len(brute)} brute-force points matched, factorial points = {facts}")


def test_criterion_7_filter_soundness_to_2000():
    t0 = time.perf_counter()
    pool = build_prime_pool(2000, 48)
    # the scan's kernel over the whole range, as `search` runs it
    front = pool.primes[:table_ranks(pool.primes, 2000)]
    tables = [nonresidue_bits(p) for p in front]
    kernel_survivors, _, kernel_rejections = scan_piece(pool, tables, 0,
                                                        seed_state(pool, 0).residue, 2000)
    # reference: `passes` at every n on the residue stream seeded from n
    wrong_rejections = []
    solution_symbols_ok = True
    reference_survivors = []
    reference_rejections: Counter[int] = Counter()
    for n in range(2, 2001):
        state = seed_state(pool, n)
        outcome = passes(state, pool)
        if outcome.passed:
            reference_survivors.append(state.n)
        else:
            reference_rejections[outcome.rejecting_prime] += 1
        if state.n in KNOWN_SOLUTIONS:
            if state.n not in kernel_survivors:
                wrong_rejections.append(state.n)
            symbols = [legendre((state.residue + 1) % p, p) for p in pool.primes]
            if not all(s in (0, 1) for s in symbols):
                solution_symbols_ok = False
    for n in kernel_survivors:
        if n not in KNOWN_SOLUTIONS:
            # survivor among non-solutions: must genuinely be a near miss
            f1 = math.factorial(n) + 1
            if isqrt(f1) ** 2 == f1:
                wrong_rejections.append(n)
    agrees = (kernel_survivors == reference_survivors
              and kernel_rejections == dict(reference_rejections))
    elapsed = time.perf_counter() - t0
    ok = not wrong_rejections and solution_symbols_ok and agrees and elapsed < 30.0
    _verdict(7, ok, t0,
             "no sound value rejected over n = 2..2000; all 48 symbols "
             f"for n in {{4, 5, 7}} are 0 or +1; kernel agrees with passes = {agrees}")


def test_criterion_8_resume_byte_identical(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    max_n, half = 10**5, 5 * 10**4
    monkeypatch.setattr(search_engine, "CHECKPOINT_INTERVAL", half)

    single_path = tmp_path / "single.jsonl"
    writer = ReportWriter.open(str(single_path))
    summary = run(SearchConfig(max_n=max_n), on_event=writer.emit_event)
    writer.write_summary(max_n - 1)
    writer.close()
    assert summary.completed

    split_path = tmp_path / "split.jsonl"
    ck = str(tmp_path / "c8.ck")
    writer = ReportWriter.open(str(split_path))
    part1 = run(SearchConfig(max_n=max_n, checkpoint_path=ck, stop_n=half),
                on_event=writer.emit_event)
    writer.close()
    assert not part1.completed
    writer = ReportWriter.open(str(split_path), append=True)
    part2 = run(SearchConfig(max_n=max_n, checkpoint_path=ck, resume=True),
                on_event=writer.emit_event)
    if part2.completed:
        writer.write_summary(max_n - 1)
    writer.close()

    identical = single_path.read_bytes() == split_path.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = identical and part2.resumed_from == half and elapsed < 30.0
    _verdict(8, ok, t0,
             f"split at n = {half} vs single pass: reports byte-identical = {identical}")


def test_criterion_9_nine_run_at_1e5():
    t0 = time.perf_counter()
    first = nine_run(FactorialRoot(10**5))
    second = nine_run(FactorialRoot(10**5))
    deterministic = first == second

    # invariants, re-derived here rather than trusted from the library:
    # the profile's epsilon must be the exact truncation of sqrt(n!)
    f = math.factorial(10**5)
    d = first.digits_computed
    scaled = isqrt(f * 10 ** (2 * d))
    frac = scaled % 10**d
    invariant_ok = (
        first.epsilon.mantissa == frac
        and scaled**2 <= f * 10 ** (2 * d) < (scaled + 1) ** 2
        and first.nine_run < first.digits_computed
    )
    digit_str = str(frac).zfill(d)
    run_recount = len(digit_str) - len(digit_str.lstrip("9"))
    consistent = run_recount == first.nine_run

    integer_digits = len(decimal_str(isqrt(f)))
    elapsed = time.perf_counter() - t0
    ok = deterministic and invariant_ok and consistent and elapsed < 600.0
    _verdict(9, ok, t0,
             f"computed nine_run = {first.nine_run} (exact, deterministic); "
             f"circulated claim = {CIRCULATED_NINE_RUN_CLAIM}, which instead matches "
             f"the integer-part digit count {integer_digits} of sqrt(100000!)")
