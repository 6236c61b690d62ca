"""The brocard benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Runs ops of the workload (see workloads.py) one after another until the
next op would take their summed wall time past --seconds, checks every
output against the independent references in checks.py, and prints the
metrics; the last line of stdout is one JSON object {"correct",
"attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of untraced ops. --trace 1
alternates untraced ops with traced ones (bench/traced.py) and reports
the per-layer metrics from the spans; the spans and self times are
written to .bench_out/. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from proc import ROOT, SRC, Proc, python, spawn
from workloads import BENCH, WORKLOADS, Workload

# Set-up processes per run. They are spread over the run, between ops, so
# that a change of the machine's speed within a run shifts only some of them.
SETUP_REPEATS = 25
# Every run reports a median over at least this many untraced ops, and a
# traced run compares the counts of at least this many traced ops; a run
# with fewer is reported as incorrect.
MIN_OPS = 2
# Start no op later than this after start-up, so that a run ends within
# 180 s even when its last op runs into its timeout (at most 60 s).
START_LIMIT_S = 90.0

END_TO_END = {
    "wall_s": "s",
    "n_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "search_engine.run.self_s": "s",
    "search_engine.kernel_ns_per_n": "ns",
    "qr_filter.symbols_per_n": "count",
    "qr_filter.survivor_share": "ratio",
    "search_engine.save_checkpoint.calls": "count",
    "search_engine.save_checkpoint.s": "s",
    "search_engine.load_checkpoint.calls": "count",
    "search_engine.load_checkpoint.s": "s",
    "cli_reporting.ReportWriter.open.s": "s",
    "factorial_engine.build_prime_pool.s": "s",
    "conditions.verify.calls": "count",
    "conditions.verify.s": "s",
    "conditions.verify.max_s": "s",
    "conditions.verify.useful_ratio": "ratio",
    "factorial_engine.factorial_exact.calls": "count",
    "factorial_engine.factorial_exact.s": "s",
    "exact_arith.isqrt.s": "s",
    "exact_arith.decimal_str.s": "s",
    "exact_arith.sqrt_digits.calls": "count",
    "exact_arith.sqrt_digits.s": "s",
    "epsilon_lab.epsilon_digits.s": "s",
    "epsilon_lab.nine_run.s": "s",
    "epsilon_lab.k_ratio_digits.s": "s",
    "cli_reporting.ReportWriter.emit.calls": "count",
    "cli_reporting.ReportWriter.emit.s": "s",
    "cli_reporting.dispatch.search.s": "s",
    "cli_reporting.dispatch.verify.s": "s",
    "cli_reporting.dispatch.epsilon.s": "s",
    "cli_reporting.dispatch.table.s": "s",
    "trace.overhead_s": "s",
    "trace.count_mismatches": "count",
}
COUNT_METRICS = [name for name, unit in PER_LAYER.items()
                 if unit == "count" and not name.startswith("trace.")]


@dataclass
class Op:
    traced: bool
    procs: dict[str, Proc] = field(default_factory=dict)
    outputs: dict[str, bytes] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs.values())

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_op(wl: Workload, op_dir: Path, op_id: int, traced: bool) -> Op:
    """One op: restore its inputs (untimed), then run its commands in order."""
    if op_dir.exists():
        shutil.rmtree(op_dir)
    op_dir.mkdir(parents=True)
    wl.restore(op_dir)
    op = Op(traced=traced)
    for label, args in wl.commands(op_dir):
        spans = op_dir / f"{label}.spans.json"
        argv = (python(str(BENCH / "traced.py"), str(spans), str(op_id), "--", *args)
                if traced else python("-m", "brocard", *args))
        proc = spawn(argv, op_dir / f"{label}.out", op_dir / f"{label}.err", wl.timeout_s)
        op.procs[label] = proc
        if not proc.ok:
            what = "timed out" if proc.timed_out else f"exited {proc.exit_code}"
            err = (op_dir / f"{label}.err").read_text("ascii", "replace")[-300:]
            op.problems.append(f"{label} {what}: {err.strip()}")
            return op
        op.outputs[label] = wl.output(label, op_dir)
        if traced:
            op.traces.append(json.loads(spans.read_text("ascii")))
    return op


def set_up(wl: Workload, work: Path, walls: list[float], count: int) -> None:
    """Add fresh processes that import brocard and build the workload's pool
    until `walls` holds `count` wall times."""
    code = "import brocard"
    if wl.pool is not None:
        code += "; brocard.build_prime_pool(%d, %d)" % wl.pool
    while len(walls) < count:
        proc = spawn(python("-c", code), work / "setup.out", work / "setup.err", 30.0)
        if not proc.ok:
            raise RuntimeError(f"set-up process failed with exit {proc.exit_code}")
        walls.append(proc.wall_s)


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_values(op: Op) -> dict[str, float]:
    """Per-layer counts and times of one traced op, summed over its commands."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    longest: dict[str, float] = {}
    facts: dict = {"solutions_verified": 0}
    for doc in op.traces:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        for s, inner in zip(spans, child):
            name, dur = s["name"], s["end"] - s["start"]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - inner
            longest[name] = max(longest.get(name, 0.0), dur)
        for key, value in doc["facts"].items():
            facts[key] = facts[key] + value if key == "solutions_verified" else value

    v: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            v[name] = calls.get(base, 0)
        elif kind == "s":
            v[name] = total.get(base, 0.0)
    v["search_engine.run.self_s"] = self_s.get("search_engine.run", 0.0)
    v["conditions.verify.max_s"] = longest.get("conditions.verify", 0.0)
    verified = calls.get("conditions.verify", 0)
    v["conditions.verify.useful_ratio"] = facts["solutions_verified"] / verified if verified else 0.0

    scanned = facts.get("scanned", 0)
    v["search_engine.kernel_ns_per_n"] = v["search_engine.run.self_s"] * 1e9 / scanned if scanned else 0.0
    if scanned:
        # The kernel evaluates pool primes in order up to the first that
        # rejects; survivors evaluate the whole pool.
        rank = {p: i for i, p in enumerate(facts["pool"])}
        symbols = sum((rank[int(p)] + 1) * c for p, c in facts["rejections_by_prime"].items())
        symbols += facts["survivors"] * len(facts["pool"])
        v["qr_filter.symbols_per_n"] = symbols / scanned
        v["qr_filter.survivor_share"] = facts["survivors"] / scanned
    else:
        v["qr_filter.symbols_per_n"] = v["qr_filter.survivor_share"] = 0.0
    dispatch = sum(t for name, t in total.items() if name.startswith("cli_reporting.dispatch."))
    v["_run_self_share"] = v["search_engine.run.self_s"] / dispatch if dispatch else 0.0
    v["_verify_share"] = v["conditions.verify.s"] / dispatch if dispatch else 0.0
    v["_self_s"] = self_s
    return v


def count_problems(wl: Workload, ops: list[Op]) -> list[str]:
    """Counts must repeat exactly across traced ops and match untraced outputs."""
    traced = [op for op in ops if op.traced and not op.failed]
    untraced = [op for op in ops if not op.traced and not op.failed]
    problems = []
    values = [layer_values(op) for op in traced]
    for name in COUNT_METRICS + ["qr_filter.symbols_per_n", "qr_filter.survivor_share"]:
        seen = {v[name] for v in values}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced repeats: {sorted(seen)}")
    for op in untraced[:1]:
        for name, expected in wl.expected_counts(op.outputs).items():
            for v in values:
                if v[name] != expected:
                    problems.append(f"{name}={v[name]} traced, {expected} from untraced outputs")
    return problems


# ---------------------------------------------------------------------------
# the run


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # The ceiling keeps git from looking for a repository above the checkout.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "commit": commit}


def measure(wl: Workload, seconds: float, trace: bool, work: Path) -> tuple[list[Op], list[float]]:
    started = time.perf_counter()
    problems = wl.prepare(work)
    if problems:
        raise RuntimeError("; ".join(problems))
    setup: list[float] = []
    set_up(wl, work, setup, SETUP_REPEATS // 4)
    measured = 0.0
    ops: list[Op] = []
    reference: dict[str, bytes] | None = None
    while True:
        traced = trace and len(ops) % 2 == 1
        op = run_op(wl, work / f"op{len(ops)}", len(ops), traced)
        if not op.failed:
            if reference is None:
                op.problems = wl.check(op.outputs)
                reference = op.outputs
            elif op.outputs != reference:
                op.problems = [f"{label} output differs from the first op's"
                               for label in op.outputs if op.outputs[label] != reference.get(label)]
        ops.append(op)
        measured += op.wall_s
        share = min(1.0, measured / seconds) if seconds > 0 else 1.0
        set_up(wl, work, setup, math.ceil(SETUP_REPEATS * share))
        if time.perf_counter() - started > START_LIMIT_S:
            break
        if measured + op.wall_s > seconds and not too_few_ops(ops, trace):
            break
    set_up(wl, work, setup, SETUP_REPEATS)
    return ops, setup


def too_few_ops(ops: list[Op], trace: bool) -> bool:
    traced = sum(op.traced for op in ops)
    return len(ops) - traced < MIN_OPS or (trace and traced < MIN_OPS)


def end_to_end(wl: Workload, ops: list[Op], setup: list[float]) -> dict[str, float]:
    good = [op for op in ops if not op.traced and not op.failed] or \
        [op for op in ops if not op.traced]
    wall = statistics.median(op.wall_s for op in good)
    return {
        "wall_s": wall,
        "n_per_s": statistics.median(wl.n_per_op() / op.wall_s for op in good),
        "cpu_s": statistics.median(sum(p.cpu_s for p in op.procs.values()) for op in good),
        "peak_rss_mb": statistics.median(max(p.peak_rss_mb for p in op.procs.values())
                                         for op in good),
        "setup_s": statistics.median(setup),
    }


def per_layer(wl: Workload, ops: list[Op], count_flags: list[str], out: Path) -> dict[str, float]:
    traced = [op for op in ops if op.traced and not op.failed]
    untraced = [op for op in ops if not op.traced and not op.failed]
    values = [layer_values(op) for op in traced]
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        if not values:
            metrics[name] = 0.0
        elif name in COUNT_METRICS:  # equal in every traced op, or flagged
            metrics[name] = values[0][name]
        else:
            metrics[name] = statistics.median(v[name] for v in values)
    if traced and untraced:
        metrics["trace.overhead_s"] = (statistics.median(op.wall_s for op in traced)
                                       - statistics.median(op.wall_s for op in untraced))
    else:
        metrics["trace.overhead_s"] = 0.0
    metrics["trace.count_mismatches"] = len(count_flags)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "workload": wl.name,
        "seed": wl.seed,
        "spans": [s for op in traced for doc in op.traces for s in doc["spans"]],
        "self_s": [v["_self_s"] for v in values],
        "shares_of_dispatch": [{"search_engine.run.self_s": v["_run_self_share"],
                                "conditions.verify.s": v["_verify_share"]} for v in values],
        "count_flags": count_flags,
        "metrics": metrics,
    }, indent=1), encoding="ascii")
    if values:
        print("median share of traced dispatch time: search_engine.run self "
              f"{statistics.median(v['_run_self_share'] for v in values):.3f}, conditions.verify "
              f"{statistics.median(v['_verify_share'] for v in values):.3f}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "brocard" / "__init__.py").is_file():
        print(f"no brocard package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops, setup = measure(wl, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    count_flags = count_problems(wl, ops) if args.trace else []
    failed = sum(op.failed for op in ops)
    incomplete = too_few_ops(ops, bool(args.trace))
    if incomplete:
        print(f"INCOMPLETE: the start limit of {START_LIMIT_S:.0f} s came before "
              f"{MIN_OPS} untraced{' and traced' if args.trace else ''} ops had run")
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"op {i} ({'traced' if op.traced else 'untraced'}) FAILED: {problem}")
    for flag in count_flags:
        print(f"COUNT FLAG: {flag}")

    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    untraced = [op for op in ops if not op.traced]
    print(f"workload {wl.name} seed {wl.seed}: {len(untraced)} untraced op(s), "
          f"{len(ops) - len(untraced)} traced, failed_share {failed / len(ops):.3f}")
    for label in untraced[0].procs:
        walls = [op.procs[label].wall_s for op in untraced if label in op.procs]
        print(f"  {label}_s median {statistics.median(walls):.4f} s over {len(walls)} op(s)")
    if args.trace:
        metrics = per_layer(wl, ops, count_flags,
                            ROOT / ".bench_out" / f"trace-{wl.name}-seed{wl.seed}.json")
        units = PER_LAYER
    else:
        metrics = end_to_end(wl, ops, setup)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not count_flags and not incomplete,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
