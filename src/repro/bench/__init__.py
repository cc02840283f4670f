"""Benchmark harness helpers."""

from .diff import Finding, benchdiff, diff_records, load_record
from .harness import (
    BENCH_SCHEMA,
    Table,
    ThroughputResult,
    bench_record,
    growth_exponent,
    run_throughput,
    table_record,
    time_call,
    write_bench_json,
)

__all__ = [
    "BENCH_SCHEMA",
    "Finding",
    "Table",
    "ThroughputResult",
    "bench_record",
    "benchdiff",
    "diff_records",
    "growth_exponent",
    "load_record",
    "run_throughput",
    "table_record",
    "time_call",
    "write_bench_json",
]
