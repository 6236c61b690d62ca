"""Independent output checks for the benchmark, using the standard library only.

Nothing here imports brocard. Every verdict is recomputed from
math.factorial and math.isqrt, so a defect in the program's exact layer
cannot also hide in its checker. The checks test meaning, not the bytes a
particular version printed: optional fields a later version may add to a
report line (a rejecting prime on a survivor) are checked when present,
never required.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math

SOLUTIONS = {4: 5, 5: 11, 7: 71}
REPORT_KINDS = {"solution", "survivor", "unresolved", "summary"}
REPORT_KEYS = {"kind", "n", "m", "rejecting_prime", "counters"}
COUNTER_KEYS = {"scanned", "rejected", "survivors", "solutions", "unresolved"}
# Rows whose k is misquoted in circulated tables; the table must flag them.
FLAGGED_TABLE_ROWS = {8, 11}
TABLE_HEADER = ["n", "k", "parity", "defect", "epsilon", "ratio", "solution", "note"]
TABLE_DIGITS = 9
EPSILON_DIGITS = 40

# Moduli for comparing a long decimal string with an integer without a
# quadratic int<->str conversion; with the digit count also checked, a
# wrong value passes with probability about 2**-122.
_MODULI = ((1 << 61) - 1, (1 << 89) - 1)
_CHUNK = 1000


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin for q < 3.3 * 10**24."""
    if q < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if q % p == 0:
            return q == p
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def decimal_matches(text: str, value: int) -> bool:
    """True when text is the canonical decimal form of the non-negative value."""
    if not text.isdigit() or not text.isascii() or (len(text) > 1 and text[0] == "0"):
        return False
    if len(text) <= 4000:
        return int(text) == value
    if not 10 ** (len(text) - 1) <= value < 10 ** len(text):
        return False
    for mod in _MODULI:
        acc = 0
        for i in range(0, len(text), _CHUNK):
            chunk = text[i:i + _CHUNK]
            acc = (acc * pow(10, len(chunk), mod) + int(chunk)) % mod
        if acc != value % mod:
            return False
    return True


def _fixed(mantissa: int, digits: int) -> str:
    return f"{mantissa // 10**digits}.{mantissa % 10**digits:0{digits}d}"


def _leading_nines(digits: str) -> int:
    return len(digits) - len(digits.lstrip("9"))


class ReportChecker:
    """Checks JSONL search reports for one scan bound.

    Line verdicts are cached by the line's text, so checking a repeat of
    the same report costs a parse, not another factorial per survivor.
    """

    def __init__(self, max_n: int) -> None:
        self.max_n = max_n
        self._line_cache: dict[str, list[str]] = {}

    def check(self, data: bytes) -> list[str]:
        problems: list[str] = []
        if not data.endswith(b"\n"):
            problems.append("report does not end with a newline (torn last line)")
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError:
            return problems + ["report is not ASCII"]
        objs, raws = [], []
        for i, raw in enumerate(text.split("\n")[:-1] if text.endswith("\n")
                                else text.split("\n")):
            try:
                obj = json.loads(raw)
            except ValueError:
                problems.append(f"line {i + 1} is not JSON: {raw[:60]!r}")
                continue
            if not isinstance(obj, dict) or obj.get("kind") not in REPORT_KINDS:
                problems.append(f"line {i + 1} has no known kind: {raw[:60]!r}")
                continue
            if set(obj) - REPORT_KEYS:
                problems.append(f"line {i + 1} has unknown keys {sorted(set(obj) - REPORT_KEYS)}")
            objs.append(obj)
            raws.append(raw)
        if problems:
            return problems

        if not objs or objs[-1]["kind"] != "summary":
            problems.append("last line is not a summary")
        if sum(o["kind"] == "summary" for o in objs) != 1:
            problems.append("report must hold exactly one summary")
        lines = [o for o in objs if o["kind"] != "summary"]
        line_raws = [r for o, r in zip(objs, raws) if o["kind"] != "summary"]
        prev = 1
        for o in lines:
            n = o.get("n")
            if not isinstance(n, int) or not prev < n <= self.max_n:
                problems.append(f"n out of order or range: {o}")
                return problems
            prev = n
        for o, raw in zip(lines, line_raws):
            if raw not in self._line_cache:
                self._line_cache[raw] = _check_line(o)
            problems.extend(self._line_cache[raw])

        found = {o["n"]: o.get("m") for o in lines if o["kind"] == "solution"}
        if found != SOLUTIONS:
            problems.append(f"solutions {sorted(found.items())} != {sorted(SOLUTIONS.items())}")
        if objs[-1]["kind"] == "summary":
            problems.extend(self._check_summary(objs[-1], lines))
        return problems

    def _check_summary(self, summary: dict, lines: list[dict]) -> list[str]:
        counters = summary.get("counters")
        if not isinstance(counters, dict) or not COUNTER_KEYS <= set(counters):
            return [f"summary lacks counters: {summary}"]
        by_kind = {kind: sum(o["kind"] == kind for o in lines) for kind in REPORT_KINDS}
        expected = {
            "scanned": self.max_n - 1,
            "survivors": len(lines),
            "solutions": by_kind["solution"],
            "unresolved": by_kind["unresolved"],
            "rejected": self.max_n - 1 - len(lines),
        }
        return [f"summary {key}={counters[key]}, expected {value}"
                for key, value in expected.items() if counters[key] != value]


def _check_line(o: dict) -> list[str]:
    """Exact verdict for one solution, survivor or unresolved line."""
    n, kind = o["n"], o["kind"]
    if kind == "unresolved":
        return [f"unresolved line for n={n}, which exact arithmetic can settle"]
    f = math.factorial(n)
    k = math.isqrt(f)
    if kind == "solution":
        m = o.get("m")
        if not isinstance(m, int) or m * m != f + 1:
            return [f"forged solution line {o}"]
        return []
    if (k + 1) * (k + 1) == f + 1:
        return [f"survivor n={n} is a solution"]
    if "m" in o:
        return [f"survivor line carries m: {o}"]
    q = o.get("rejecting_prime")
    if q is not None and not (isinstance(q, int) and q > 2 and _is_prime(q)
                              and pow((f + 1) % q, (q - 1) // 2, q) == q - 1):
        return [f"rejecting_prime does not certify n={n}: {o}"]
    return []


class ExactChecker:
    """Checks the verify, epsilon --nine-run and table outputs of one exact op.

    The reference for n is one math.isqrt(n! * 10**(2P)); every lower
    precision, k = isqrt(n!) included, follows by integer division because
    truncations compose.
    """

    def __init__(self, n: int, table_from: int, table_to: int) -> None:
        self.n = n
        self.table_from = table_from
        self.table_to = table_to
        self._f: int | None = None
        self._roots: dict[int, int] = {}

    def _root(self, digits: int) -> int:
        """floor(sqrt(n!) * 10**digits)."""
        if self._f is None:
            self._f = math.factorial(self.n)
        for have, root in self._roots.items():
            if have >= digits:
                return root // 10 ** (have - digits)
        root = math.isqrt(self._f * 10 ** (2 * digits))
        self._roots[digits] = root
        return root

    def check_verify(self, out: str) -> list[str]:
        fields = _key_values(out)
        k = self._root(EPSILON_DIGITS) // 10**EPSILON_DIGITS
        f = self._f
        defect = f - k * k
        solution = defect == 2 * k
        flag = "true" if solution else "false"
        expected = {
            "n": lambda v: v == str(self.n),
            "k": lambda v: decimal_matches(v, k),
            "m_candidate": lambda v: decimal_matches(v, k + 1),
            "k_even": lambda v: v == ("true" if k % 2 == 0 else "false"),
            "defect": lambda v: decimal_matches(v, defect),
            "product_matches": lambda v: v == flag,
            "is_solution": lambda v: v == flag,
            "m": lambda v: decimal_matches(v, k + 1) if solution else v == "none",
        }
        return _compare_fields("verify", fields, expected)

    def check_epsilon(self, out: str) -> list[str]:
        fields = _key_values(out)
        digits = fields.get("digits_computed", "")
        if not digits.isdigit() or int(digits) == 0:
            return [f"epsilon: bad digits_computed {digits!r}"]
        d = int(digits)
        scale = max(d, EPSILON_DIGITS)
        root = self._root(scale)
        eps = root // 10 ** (scale - EPSILON_DIGITS) % 10**EPSILON_DIGITS
        frac = f"{root // 10 ** (scale - d) % 10**d:0{d}d}"
        run = _leading_nines(frac)
        return _compare_fields("epsilon", fields, {
            "n": lambda v: v == str(self.n),
            "epsilon": lambda v: v == _fixed(eps, EPSILON_DIGITS),
            "nine_run": lambda v: v == str(run),
            "nine_run_exact": lambda v: v == "true",
            # A run that fills every computed digit might go on past them.
            "digits_computed": lambda v: run < d,
        })

    def check_table(self, out: str) -> list[str]:
        rows = [line.split(None, 7) for line in out.splitlines()]
        if not rows or rows[0] != TABLE_HEADER:
            return [f"table: bad header {rows[:1]}"]
        want = list(range(self.table_from, self.table_to + 1))
        if [r[0] for r in rows[1:]] != [str(n) for n in want]:
            return ["table: rows do not cover the requested range in order"]
        problems = []
        for row, n in zip(rows[1:], want):
            problems.extend(_check_table_row(row, n))
            if len(problems) > 5:
                break
        return problems


def _key_values(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _compare_fields(what: str, fields: dict[str, str], expected: dict) -> list[str]:
    problems = []
    for key, ok in expected.items():
        if key not in fields:
            problems.append(f"{what}: missing field {key}")
        elif not ok(fields[key]):
            problems.append(f"{what}: wrong {key}: {fields[key][:60]!r}")
    return problems


def _ratio_text(f: int, k: int) -> str:
    """eps**2 / (2 (1 - eps)) truncated to TABLE_DIGITS, eps = sqrt(f) - k.

    At a solution the ratio is exactly k. Otherwise it is irrational, and
    bracketing eps between consecutive scaled roots converges: the ratio is
    increasing in eps on [0, 1), so equal truncations of both ends decide it.
    """
    if f == k * k:
        return "-"
    if f - k * k == 2 * k:
        return _fixed(k * 10**TABLE_DIGITS, TABLE_DIGITS)
    guard = 30
    while True:
        scale = 10**guard
        s = math.isqrt(f * scale * scale)
        ends = []
        for u in (s - k * scale, s + 1 - k * scale):
            if u >= scale:
                break
            ends.append(u * u * 10**TABLE_DIGITS // (2 * scale * (scale - u)))
        if len(ends) == 2 and ends[0] == ends[1]:
            return _fixed(ends[0], TABLE_DIGITS)
        guard += 30


def _check_table_row(row: list[str], n: int) -> list[str]:
    f = math.factorial(n)
    k = math.isqrt(f)
    defect = f - k * k
    eps = math.isqrt(f * 10 ** (2 * TABLE_DIGITS)) % 10**TABLE_DIGITS
    want = [
        str(n), str(k), "even" if k % 2 == 0 else "odd", str(defect),
        _fixed(eps, TABLE_DIGITS), _ratio_text(f, k),
        "yes" if defect == 2 * k else "no",
    ]
    problems = [f"table row {n}: {name} is {got!r}, expected {exp!r}"
                for name, got, exp in zip(TABLE_HEADER, row, want) if got != exp]
    if len(row) < len(want):
        problems.append(f"table row {n}: only {len(row)} columns")
    note = row[7] if len(row) > 7 else ""
    if (n in FLAGGED_TABLE_ROWS) != note.startswith("k corrected"):
        problems.append(f"table row {n}: correction flag wrong, note {note!r}")
    return problems
