"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names and units; a test keeps the two
in step.  With ``--trace 0`` a run prints ``END_TO_END``; with
``--trace 1`` it prints ``PER_LAYER``.  A per-layer metric of a layer a
workload never calls reads 0.
"""

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "cover_size": "count",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "streaming.load_ms": "ms",
    "streaming.stream_of_ms": "ms",
    "streaming.self_ms": "ms",
    "core.kk_run_ms": "ms",
    "core.verify_ms": "ms",
    "core.peak_words": "words",
    "core.self_ms": "ms",
    "distributed.plan_ms": "ms",
    "distributed.shard_run_ms": "ms",
    "distributed.shard_skew": "ratio",
    "distributed.merge_ms": "ms",
    "distributed.comm_words": "words",
    "distributed.self_ms": "ms",
    "serve.compute_ms_p50": "ms",
    "serve.overhead_ms_p50": "ms",
    "serve.solve.latency_p50_ms": "ms",
    "serve.distribute.latency_p50_ms": "ms",
    "serve.chaos.latency_p50_ms": "ms",
    "serve.latency_p90_ms": "ms",
    "serve.queued_total": "count",
    "serve.rejected": "count",
    "serve.degraded_frac": "ratio",
    "serve.self_ms": "ms",
    "bench.uncovered_ms": "ms",
    "bench.probe_ms": "ms",
    "bench.raw_setup_s": "s",
    "bench.raw_latency_p50_ms": "ms",
    "bench.raw_throughput_rps": "1/s",
    "bench.trace_overhead": "ratio",
    "bench.traced_ops": "count",
}


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    """The final output object: every metric of ``units``, 0 when not measured."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
