"""Benchmark harness helpers."""

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
    "Table",
    "ThroughputResult",
    "bench_record",
    "growth_exponent",
    "run_throughput",
    "table_record",
    "time_call",
    "write_bench_json",
]
