"""Shared benchmark reporting: print tables and persist them to disk.

pytest captures stdout, so every bench also writes its paper-shaped table
to ``benchmarks/results/<name>.txt``; EXPERIMENTS.md points there.  Run
``pytest benchmarks/ --benchmark-only -s`` to see tables live.

Alongside each text table, :func:`report` emits a machine-readable
``benchmarks/results/BENCH_<name>.json`` following the ``repro.bench/1``
schema (see EXPERIMENTS.md, "JSON output contract"), for tools that
read the tables without parsing text.  Each bench gates itself with
same-run ratio assertions; wall-clock regressions across commits are
judged by the paired runs of ``benchmarks/e2e``.
"""

from __future__ import annotations

import os

from repro.bench import Table, write_bench_json
from repro.obs import MaintenanceStats

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def report(
    table: Table,
    filename: str,
    stats: MaintenanceStats | None = None,
    extra_tables: list[Table] | None = None,
    meta: dict | None = None,
) -> None:
    """Print the table and persist it under benchmarks/results/.

    Writes both the fixed-width text rendering (``<filename>``) and the
    JSON record (``BENCH_<stem>.json``).  ``stats`` and ``extra_tables``
    ride along into the JSON document when a bench provides them.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = table.render()
    print()
    print(text)
    with open(os.path.join(RESULTS_DIR, filename), "w") as handle:
        handle.write(text + "\n")
    name = os.path.splitext(filename)[0]
    write_bench_json(
        RESULTS_DIR,
        name,
        [table] + list(extra_tables or []),
        stats=stats,
        meta=meta,
    )
