"""Make the checkpoint and partial report that the resume workload starts from.

    python3 bench/make_resume.py MAX_N STOP_N CHECKPOINT REPORT

Uses only brocard's public API: run(SearchConfig(..., stop_n=STOP_N))
with the report written by ReportWriter, exactly as an interrupted
`brocard search --checkpoint CHECKPOINT --report REPORT` would leave them.
"""

from __future__ import annotations

import sys

from brocard.cli_reporting import ReportWriter
from brocard.search_engine import SearchConfig, run


def main(argv: list[str]) -> int:
    max_n, stop_n, checkpoint, report = int(argv[0]), int(argv[1]), argv[2], argv[3]
    writer = ReportWriter.open(report)
    try:
        summary = run(SearchConfig(max_n=max_n, checkpoint_path=checkpoint, stop_n=stop_n),
                      on_event=writer.emit_event)
    finally:
        writer.close()
    if summary.completed or summary.scanned_range[1] != stop_n:
        print(f"scan did not stop at {stop_n}: {summary.scanned_range}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
