"""Run one brocard command in-process with spans around each layer's calls.

    python3 bench/traced.py SPANS.json OP_ID -- <brocard arguments>

Calls brocard.cli_reporting.dispatch(argv) after wrapping the public
functions of each layer where the consuming module looks them up, so no
file of the package changes. Spans (name, start, end, parent, op id) stay
in memory and are written to SPANS.json when the command ends, together
with the facts the per-layer counts need: the scan's pool and the
rejections by prime from its summary. The command's own output goes to
stdout and stderr exactly as in an untraced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import brocard.cli_reporting as cli
import brocard.conditions as conditions
import brocard.epsilon_lab as epsilon_lab
import brocard.exact_arith as exact_arith
import brocard.search_engine as search_engine

# (consumer module or class, attribute, span name)
TARGETS = [
    (cli, "run", "search_engine.run"),
    (search_engine, "build_prime_pool", "factorial_engine.build_prime_pool"),
    (search_engine, "save_checkpoint", "search_engine.save_checkpoint"),
    (search_engine, "load_checkpoint", "search_engine.load_checkpoint"),
    (conditions, "verify", "conditions.verify"),
    (conditions, "factorial_exact", "factorial_engine.factorial_exact"),
    (conditions, "isqrt", "exact_arith.isqrt"),
    (epsilon_lab, "factorial_exact", "factorial_engine.factorial_exact"),
    (epsilon_lab, "isqrt", "exact_arith.isqrt"),
    (epsilon_lab, "sqrt_digits", "exact_arith.sqrt_digits"),
    (cli, "epsilon_digits", "epsilon_lab.epsilon_digits"),
    (cli, "nine_run", "epsilon_lab.nine_run"),
    (cli, "k_ratio_digits", "epsilon_lab.k_ratio_digits"),
    (cli, "decimal_str", "exact_arith.decimal_str"),
    (exact_arith, "decimal_str", "exact_arith.decimal_str"),
    (cli.ReportWriter, "open", "cli_reporting.ReportWriter.open"),
    (cli.ReportWriter, "emit", "cli_reporting.ReportWriter.emit"),
]


class Tracer:
    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.facts: dict = {"solutions_verified": 0}

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.op_id])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()
        self._note(name, result)
        return result

    def _note(self, name: str, result) -> None:
        if name == "factorial_engine.build_prime_pool":
            self.facts["pool"] = list(result.primes)
        elif name == "search_engine.run":
            self.facts["scanned"] = max(0, result.scanned_range[1] - result.scanned_range[0] + 1)
            self.facts["survivors"] = result.survivors
            self.facts["rejections_by_prime"] = {str(p): c for p, c in
                                                 result.rejections_by_prime.items()}
        elif name == "conditions.verify" and result.is_solution:
            self.facts["solutions_verified"] += 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def install(tracer: Tracer) -> list[tuple]:
    """Swap every target for its traced wrapper; returns what to restore."""
    saved = []
    for owner, attr, name in TARGETS:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(tracer.wrap(name, original.__func__))
        else:
            replacement = tracer.wrap(name, original)
        setattr(owner, attr, replacement)
        saved.append((owner, attr, original))
    return saved


def main(argv: list[str]) -> int:
    spans_path, op_id, sep, *command = argv
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 1
    tracer = Tracer(int(op_id))
    saved = install(tracer)
    try:
        code = tracer.call(f"cli_reporting.dispatch.{command[0]}", cli.dispatch, command)
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump({
            "exit": code,
            "spans": [dict(zip(("name", "start", "end", "parent", "op"), s))
                      for s in tracer.spans],
            "facts": tracer.facts,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
