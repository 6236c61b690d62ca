"""Self-tests of the benchmark: checker mutations, then a smoke run.

    python3 bench/selftest.py

The mutation tests feed the output checker corrupted reports and
outputs, each of which must be reported as a failure, next to valid ones
that must pass. The smoke run then runs every workload once at tiny
sizes, untraced and traced, and requires a correct result. Exits 0 when
everything passed.
"""

from __future__ import annotations

import json
import subprocess
import sys

from checks import ExactChecker, ReportChecker, decimal_matches
from proc import ROOT, python, spawn
from workloads import BENCH, WORKLOADS

MAX_N = 100
SOLUTION_LINES = [
    '{"kind":"solution","n":4,"m":5}',
    '{"kind":"solution","n":5,"m":11}',
    '{"kind":"solution","n":7,"m":71}',
]


def report(lines: list[str], scanned: int = MAX_N - 1, survivors: int | None = None,
           solutions: int | None = None, rejected: int | None = None) -> bytes:
    settled = [json.loads(line) for line in lines]
    survivors = len(settled) if survivors is None else survivors
    solutions = sum(o["kind"] == "solution" for o in settled) if solutions is None else solutions
    rejected = scanned - survivors if rejected is None else rejected
    counters = {"scanned": scanned, "rejected": rejected, "survivors": survivors,
                "solutions": solutions, "unresolved": 0}
    summary = json.dumps({"kind": "summary", "counters": counters}, separators=(",", ":"))
    return ("\n".join(lines + [summary]) + "\n").encode("ascii")


def certificate(n: int, passing: bool) -> int:
    """A prime above MAX_N at which n! + 1 is a non-residue (or a residue)."""
    f = 1
    for i in range(2, n + 1):
        f *= i
    q = MAX_N + 1
    while True:
        q += 1
        if all(q % d for d in range(2, int(q**0.5) + 1)):
            if (pow((f + 1) % q, (q - 1) // 2, q) == q - 1) == passing:
                return q


def survivor(n: int, prime: int | None = None) -> str:
    extra = "" if prime is None else f',"rejecting_prime":{prime}'
    return f'{{"kind":"survivor","n":{n}{extra}}}'


REPORT_CASES = [
    # (name, report bytes, must pass)
    ("valid report", report(SOLUTION_LINES), True),
    ("valid survivor", report(SOLUTION_LINES[:2] + [survivor(6)] + SOLUTION_LINES[2:]), True),
    ("valid certified survivor",
     report(SOLUTION_LINES[:2] + [survivor(6, certificate(6, True))] + SOLUTION_LINES[2:]), True),
    ("forged solution line",
     report(SOLUTION_LINES[:2] + ['{"kind":"solution","n":6,"m":27}'] + SOLUTION_LINES[2:]), False),
    ("wrong scanned counter", report(SOLUTION_LINES, scanned=MAX_N - 2, rejected=MAX_N - 4), False),
    ("wrong survivors counter", report(SOLUTION_LINES, survivors=4), False),
    ("wrong rejected counter", report(SOLUTION_LINES, rejected=95), False),
    ("torn last line", report(SOLUTION_LINES)[:-12], False),
    ("survivor that is really a solution",
     report(SOLUTION_LINES[:1] + [survivor(5)] + SOLUTION_LINES[2:]), False),
    ("missing solution", report(SOLUTION_LINES[:2]), False),
    ("bogus certificate",
     report(SOLUTION_LINES[:2] + [survivor(6, certificate(6, False))] + SOLUTION_LINES[2:]), False),
    ("composite certificate",
     report(SOLUTION_LINES[:2] + [survivor(6, 111)] + SOLUTION_LINES[2:]), False),
    ("unresolved line",
     report(SOLUTION_LINES + ['{"kind":"unresolved","n":8}']), False),
    ("lines out of order", report([SOLUTION_LINES[1], SOLUTION_LINES[0], SOLUTION_LINES[2]]), False),
    ("no summary", ("\n".join(SOLUTION_LINES) + "\n").encode("ascii"), False),
]

VERIFY_10 = """n: 10
k: 1904
m_candidate: 1905
k_even: true
defect: 3584
product_matches: false
is_solution: false
m: none
"""


def brocard_output(args: list[str], scratch_name: str) -> str:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    out, err = work / f"{scratch_name}.out", work / f"{scratch_name}.err"
    proc = spawn(python("-m", "brocard", *args), out, err, 60.0)
    text = out.read_text("ascii")
    out.unlink()
    err.unlink()
    if not proc.ok:
        raise RuntimeError(f"brocard {args} exited {proc.exit_code}")
    return text


def exact_cases() -> list[tuple[str, list[str], bool]]:
    """(name, problems, must pass) for the exact-output checks."""
    ten = ExactChecker(10, 1, 12)
    table = brocard_output(["table", "--from", "1", "--to", "12"], "selftest-table")
    eps = brocard_output(["epsilon", "2000", "--nine-run"], "selftest-eps")
    row11 = next(line for line in table.splitlines() if line.lstrip().startswith("11 "))
    row4 = next(line for line in table.splitlines() if line.lstrip().startswith("4 "))
    big = 7**30000
    text = f"{big:d}"
    flipped = text[:-5] + str((int(text[-5]) + 1) % 10) + text[-4:]
    decimal = [
        (name, [] if decimal_matches(digits, big) else ["decimal does not match"], ok)
        for name, digits, ok in (("long decimal", text, True),
                                 ("long decimal with a flipped digit", flipped, False),
                                 ("decimal with a leading zero", "0" + text, False))
    ]
    return decimal + [
        ("valid verify", ten.check_verify(VERIFY_10), True),
        ("verify with wrong k", ten.check_verify(VERIFY_10.replace("k: 1904", "k: 1903")), False),
        ("verify claiming a solution",
         ten.check_verify(VERIFY_10.replace("is_solution: false", "is_solution: true")), False),
        ("valid table", ten.check_table(table), True),
        ("table missing the row 11 flag",
         ten.check_table(table.replace(row11, row11.split("  k corrected")[0])), False),
        ("table with a wrong ratio",
         ten.check_table(table.replace(row4, row4.replace("4.000000000", "3.999999999"))), False),
        ("table flagging row 12",
         ten.check_table(table.replace(table.splitlines()[12],
                                       table.splitlines()[12] + "  k corrected")), False),
        ("valid epsilon", ExactChecker(2000, 1, 1).check_epsilon(eps), True),
        ("epsilon computed to another precision",
         ExactChecker(2000, 1, 1).check_epsilon(
             eps.replace("digits_computed: 64", "digits_computed: 20")), True),
        ("epsilon with no digits computed",
         ExactChecker(2000, 1, 1).check_epsilon(
             eps.replace("digits_computed: 64", "digits_computed: 0")), False),
        ("epsilon with a wrong nine_run",
         ExactChecker(2000, 1, 1).check_epsilon(eps.replace("nine_run: 0", "nine_run: 1")), False),
    ]


def smoke() -> list[tuple[str, list[str], bool]]:
    cases = []
    for name in WORKLOADS:
        for trace in ("0", "1"):
            done = subprocess.run(
                python(str(BENCH / "run.py"), "--workload", name, "--seed", "7",
                       "--seconds", "0", "--trace", trace, "--smoke"),
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                problems = [] if done.returncode == 0 and result["correct"] else lines[-8:]
            except (IndexError, ValueError):
                problems = [f"exit {done.returncode}", done.stderr[-500:]]
            cases.append((f"smoke {name} trace {trace}", problems, True))
    return cases


def main() -> int:
    sys.set_int_max_str_digits(0)
    cases = [(name, ReportChecker(MAX_N).check(data), ok) for name, data, ok in REPORT_CASES]
    cases += exact_cases()
    cases += smoke()
    bad = 0
    for name, problems, must_pass in cases:
        good = (not problems) == must_pass
        bad += not good
        detail = "" if must_pass else f" ({problems[0][:70] if problems else 'not detected'})"
        print(f"{'PASS' if good else 'FAIL'}: {name}{detail}")
        if not good and must_pass:
            for problem in problems[:5]:
                print(f"    {problem}")
    print(f"{len(cases) - bad}/{len(cases)} self-tests passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
