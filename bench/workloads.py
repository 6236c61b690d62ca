"""The benchmark's workloads: which brocard commands one op runs.

The seed only shifts arguments (the scan bound, the exact-command n and
the table's end); the program sees nothing but the generated argv. Each
op runs its commands one at a time as fresh `python -m brocard`
processes, or, in a traced op, through bench/traced.py.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from checks import ExactChecker, ReportChecker
from proc import python, spawn

BENCH = Path(__file__).resolve().parent
DEFAULT_POOL = 48


class Workload:
    name = ""
    # Per command. An op's commands together may take at most 60 s, which
    # run.py's START_LIMIT_S relies on.
    timeout_s = 60.0
    # (max_n, pool size) that setup_s builds, or None for import only.
    pool: tuple[int, int] | None = None

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def prepare(self, work: Path) -> list[str]:
        """Untimed per-run set-up; returns problems (empty when it worked)."""
        return []

    def commands(self, op_dir: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def restore(self, op_dir: Path) -> None:
        """Untimed per-op set-up before the commands run."""

    def output(self, label: str, op_dir: Path) -> bytes:
        return (op_dir / f"{label}.out").read_bytes()

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        raise NotImplementedError

    def n_per_op(self) -> int:
        raise NotImplementedError

    def expected_counts(self, outputs: dict[str, bytes]) -> dict[str, int]:
        """Per-layer counts that an untraced op's outputs determine."""
        return {}


class _Search(Workload):
    """One `search` command whose report file is the output."""

    pool_size = DEFAULT_POOL
    extra_args: list[str] = []
    # Report lines already present before the timed command runs.
    prior_lines = 0

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.max_n = self.bound()
        self.pool = (self.max_n, self.pool_size)
        self.checker = ReportChecker(self.max_n)

    def bound(self) -> int:
        raise NotImplementedError

    def commands(self, op_dir: Path) -> list[tuple[str, list[str]]]:
        args = ["search", "--max-n", str(self.max_n), *self.extra_args,
                "--report", str(op_dir / "report.jsonl")]
        return [("search", args)]

    def output(self, label: str, op_dir: Path) -> bytes:
        return (op_dir / "report.jsonl").read_bytes()

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        return self.checker.check(outputs["search"])

    def n_per_op(self) -> int:
        return self.max_n - 1

    def expected_counts(self, outputs: dict[str, bytes]) -> dict[str, int]:
        written = outputs["search"].splitlines()[self.prior_lines:]
        settled = sum(b'"kind":"summary"' not in line for line in written)
        return {
            "cli_reporting.ReportWriter.emit.calls": len(written),
            "conditions.verify.calls": settled,
        }


class Scan(_Search):
    name = "scan"

    def bound(self) -> int:
        return (3000 if self.smoke else 1_000_000) + self.seed % 1000

    def commands(self, op_dir: Path) -> list[tuple[str, list[str]]]:
        [(label, args)] = super().commands(op_dir)
        return [(label, args + ["--checkpoint", str(op_dir / "scan.ck")])]


class Settle(_Search):
    name = "settle"
    pool_size = 8
    extra_args = ["--primes", "8"]
    # The bound moves inside the prime gap 30593..30631, so every seed
    # scans with the same pool (8 primes from 30631) and settles the same
    # ~120 survivors. A bound whose pool changed would re-draw the survivor
    # set, and its settlement cost varied by a quarter between pools.
    GAP_LOW, GAP_WIDTH = 30593, 38

    def bound(self) -> int:
        if self.smoke:
            return 600 + self.seed % 100
        return self.GAP_LOW + self.seed % self.GAP_WIDTH


class Resume(_Search):
    name = "resume"
    timeout_s = 30.0

    def bound(self) -> int:
        return (3000 if self.smoke else 1_000_000) + self.seed % 1000

    @property
    def stop_n(self) -> int:
        return self.max_n - (500 if self.smoke else 10_000)

    def prepare(self, work: Path) -> list[str]:
        """Make the checkpoint and partial report once, with the public API."""
        self.pristine = work / "pristine"
        self.pristine.mkdir()
        proc = spawn(
            python(str(BENCH / "make_resume.py"), str(self.max_n), str(self.stop_n),
                   str(self.pristine / "scan.ck"), str(self.pristine / "report.jsonl")),
            work / "prepare.out", work / "prepare.err", timeout_s=60.0)
        if not proc.ok:
            return [f"resume set-up failed with exit {proc.exit_code}"]
        self.prior_lines = len((self.pristine / "report.jsonl").read_bytes().splitlines())
        return []

    def restore(self, op_dir: Path) -> None:
        for name in ("scan.ck", "report.jsonl"):
            shutil.copyfile(self.pristine / name, op_dir / name)

    def commands(self, op_dir: Path) -> list[tuple[str, list[str]]]:
        [(label, args)] = super().commands(op_dir)
        return [(label, args + ["--checkpoint", str(op_dir / "scan.ck"), "--resume"])]

    def n_per_op(self) -> int:
        return self.max_n - self.stop_n


class Exact(Workload):
    name = "exact"
    timeout_s = 20.0  # an op runs three commands

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n = (2000 + seed % 100) if smoke else (100_000 + seed % 1000)
        self.table_to = (30 + seed % 10) if smoke else (1000 + seed % 100)
        self.checker = ExactChecker(self.n, 1, self.table_to)

    def commands(self, op_dir: Path) -> list[tuple[str, list[str]]]:
        return [
            ("verify", ["verify", str(self.n)]),
            ("epsilon", ["epsilon", str(self.n), "--nine-run"]),
            ("table", ["table", "--from", "1", "--to", str(self.table_to)]),
        ]

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        text = {k: v.decode("ascii", "replace") for k, v in outputs.items()}
        return (self.checker.check_verify(text["verify"])
                + self.checker.check_epsilon(text["epsilon"])
                + self.checker.check_table(text["table"]))

    def n_per_op(self) -> int:
        return 2 + self.table_to

    def expected_counts(self, outputs: dict[str, bytes]) -> dict[str, int]:
        return {"conditions.verify.calls": 1 + self.table_to,
                "cli_reporting.ReportWriter.emit.calls": 0}


WORKLOADS = {w.name: w for w in (Scan, Settle, Exact, Resume)}
