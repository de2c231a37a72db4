"""The batch workloads: CLI ``solve`` and ``distribute`` in-process.

One op is one call of ``repro.cli.main`` on the generated instance file
with a fresh per-op seed, serial with one op in flight.  Each op is
bracketed by probes taken with nothing in flight; the harness then
checks the printed cover against its own copy of the instance.

The traced phase decomposes the same ops into the public calls the CLI
makes, one span per call, and must reproduce the CLI's cover exactly.
The names it passes on (algorithm, order, alpha; for distribute also
strategy, coordinator, threshold, backend, max_workers and transport)
are read from the CLI parser's defaults, so the decomposition follows
the program when those defaults change.  The distribute decomposition
times one path only, the one ``DECOMPOSED_DISTRIBUTE`` names: a parser
whose defaults leave that path counts a parity failure on every op.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from probe import HostProbe, correction_factor
from stats import percentile
from spans import SpanRecorder
from verify import HarnessInstance, OpLedger, check_cover, parse_cli_cover

#: Instance of both batch workloads: 2000 elements, 5000 sets of 50.
INSTANCE_SHAPE = dict(n=2000, m=5000, set_size=50)
#: Ops a run makes at least, whatever ``--seconds`` says, so that the
#: p50 has ten samples beyond it.
MIN_OPS = 20
#: ``cover_size`` is the mean over this many first ops, so it is the
#: same on every run with one seed.
COVER_OPS = MIN_OPS
#: Ops decomposed in the traced phase.
TRACED_OPS = 3
#: Shards of the ``distribute-w4`` workload.
WORKERS = 4
#: A run gives up (and fails) once it has measured this long.
MAX_MEASURE_S = 150.0
#: ``distribute`` defaults the traced decomposition assumes: materialized
#: shards, the synchronous merge, no comm budget and no shard faults.
DECOMPOSED_DISTRIBUTE = dict(
    ingest="materialize", async_sim=False, comm_budget=None,
    crash=0.0, flaky=0.0, straggle=0.0, duplicate=0.0,
    min_shards=None, deadline_steps=None,
)


def generate_instance(seed: int, workdir: Path) -> Tuple[Path, HarnessInstance]:
    """Write the seeded instance file; return it with the harness copy."""
    from repro.generators.random_instances import fixed_size_instance
    from repro.streaming.io import dump_instance

    instance = fixed_size_instance(seed=seed, **INSTANCE_SHAPE)
    path = workdir / f"fixed-size-{seed}.txt"
    dump_instance(instance, path)
    return path, HarnessInstance.of(instance.n, instance.sets())


def op_seeds(seed: int):
    """The per-op seeds of a run: an endless seeded sequence."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(31)


def cli_argv(kind: str, path: Path, seed: int) -> List[str]:
    if kind == "solve":
        return ["solve", str(path), "--seed", str(seed)]
    return ["distribute", str(path), "--workers", str(WORKERS), "--seed", str(seed)]


@dataclass
class BatchRun:
    """What one batch run measured."""

    ledger: OpLedger = field(default_factory=OpLedger)
    covers: List[Optional[List[int]]] = field(default_factory=list)
    seeds: List[int] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)


def run_cli_op(kind: str, path: Path, seed: int, probe: HostProbe) -> Tuple[float, int, str]:
    """One probed op: (raw seconds, exit code, captured stdout)."""
    from repro.cli import main

    buffer = io.StringIO()
    probe.op_started()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(cli_argv(kind, path, seed))
    finally:
        raw = time.perf_counter() - start
        probe.op_finished()
    return raw, code, buffer.getvalue()


def measure_e2e(kind: str, path: Path, harness: HarnessInstance, seed: int, seconds: float, probe: HostProbe) -> BatchRun:
    """Closed loop of CLI ops for ``seconds`` and at least ``MIN_OPS``.

    One probe reading sits between consecutive ops (after collecting
    the previous op's garbage), so each op is corrected by the readings
    right before and right after it.  Outputs are checked after the loop.
    """
    run = BatchRun()
    seeds = op_seeds(seed)
    outputs: List[Tuple[int, str]] = []
    errors: Dict[int, str] = {}
    raws: List[float] = []
    started = time.perf_counter()
    gc.collect()
    before = probe.measure()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(raws) >= MIN_OPS:
            break
        if elapsed >= MAX_MEASURE_S:
            break
        op_seed = next(seeds)
        try:
            raw, code, output = run_cli_op(kind, path, op_seed, probe)
        except Exception as exc:  # noqa: BLE001 - an op failure is a measurement
            raw, code, output = 0.0, -1, ""
            errors[len(raws)] = f"{type(exc).__name__}: {exc}"
        gc.collect()
        after = probe.measure()
        run.seeds.append(op_seed)
        run.factors.append(correction_factor([before, after]))
        raws.append(raw)
        outputs.append((code, output))
        before = after
    for index, (code, output) in enumerate(outputs):
        cover = None
        if index in errors:
            run.ledger.record_failure("error", errors[index])
        elif code != 0:
            run.ledger.record_failure("exit", f"exit code {code}")
        else:
            try:
                cover = parse_cli_cover(output)
            except ValueError as exc:
                run.ledger.record_failure("invalid", str(exc))
            else:
                problems = check_cover(harness, cover)
                if problems:
                    run.ledger.record_failure("invalid", "; ".join(problems[:3]))
                else:
                    run.ledger.record_ok(raws[index] * run.factors[index], raws[index])
        run.covers.append(cover)
    return run


def peak_rss_mb() -> float:
    """High-water RSS of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(run: BatchRun) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(end-to-end metrics, raw twins and sample counts) of one run."""
    ledger = run.ledger
    ok_corrected = [x for x in ledger.latencies if x != float("inf")]
    ok_raw = [x for x in ledger.raw_latencies if x != float("inf")]
    first = [c for c in run.covers[:COVER_OPS] if c is not None]
    metrics = {
        "latency_p50_ms": percentile(ledger.latencies, 50) * 1000.0,
        "throughput_rps": len(ok_corrected) / sum(ok_corrected) if ok_corrected else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "cover_size": statistics.mean(len(c) for c in first) if first else 0.0,
        "ok_frac": ledger.ok_frac,
    }
    detail = {
        "latency_samples": len(ledger.latencies),
        "cover_samples": len(first),
        "raw_latency_p50_ms": percentile(ledger.raw_latencies, 50) * 1000.0,
        "raw_throughput_rps": len(ok_raw) / sum(ok_raw) if ok_raw else 0.0,
        "latencies_s": ledger.latencies,
        "raw_latencies_s": ledger.raw_latencies,
    }
    return metrics, detail


# -- traced phase ----------------------------------------------------------


def cli_defaults(kind: str, path: Path):
    from repro.cli import build_parser

    return build_parser().parse_args(cli_argv(kind, path, 0))


def undecomposed_defaults(kind: str, path: Path) -> List[str]:
    """CLI defaults that take ``kind`` off the path the decomposition times."""
    if kind != "distribute":
        return []
    flags = cli_defaults(kind, path)
    return sorted(
        name for name, value in DECOMPOSED_DISTRIBUTE.items()
        if getattr(flags, name) != value
    )


def traced_solve(rec: SpanRecorder, op_id: str, path: Path, seed: int) -> Dict[str, object]:
    from repro.algorithms import make_algorithm
    from repro.streaming.io import load_instance
    from repro.streaming.orders import make_order
    from repro.streaming.stream import stream_of

    flags = cli_defaults("solve", path)
    with rec.span("op.solve", op_id) as op:
        with rec.span("streaming.load", op_id, op):
            instance = load_instance(path)
            instance.validate()
        with rec.span("streaming.stream_of", op_id, op):
            stream = stream_of(instance, make_order(flags.order, seed=seed))
        with rec.span("core.kk_run", op_id, op):
            result = make_algorithm(
                flags.algorithm, instance, seed=seed, alpha=flags.alpha
            ).run(stream)
        with rec.span("core.verify", op_id, op):
            result.verify(instance)
    return {
        "op": op,
        "cover": sorted(result.cover),
        "certificate": sorted(result.certificate.items()),
        "peak_words": result.space.peak_words,
    }


def _merge(instance, plan, outputs, coordinator: str, options, transport_name):
    """The chain merge as ``run_distributed`` does it: (outcome, comm report)."""
    from repro.distributed.comm import CommMeter
    from repro.distributed.coordinator import make_coordinator
    from repro.distributed.executor import resolve_transport
    from repro.obs.tracer import NULL_TRACER

    merger = make_coordinator(coordinator, options)
    comm = CommMeter(budget=None)
    transport = resolve_transport(transport_name)
    try:
        outcome = merger.merge(
            instance, plan, outputs, comm, tracer=NULL_TRACER,
            allow_partial=False, transport=transport,
        )
        report = comm.report()
    finally:
        transport.close()
    return outcome, report


def decompose_distribute(rec: SpanRecorder, op_id: str, parent, instance, seed: int, workers: int, algorithm: str, strategy: str, coordinator: str, order_name: str, alpha, backend: str, max_workers: int, transport, options) -> Dict[str, object]:
    """Plan, shard-run, merge and verify under ``parent``; shared with serve."""
    from repro.distributed.backends import make_backend
    from repro.distributed.executor import DistributedResult, build_shard_plan_and_tasks
    from repro.streaming.orders import make_order

    with rec.span("distributed.plan", op_id, parent):
        plan, tasks = build_shard_plan_and_tasks(
            instance, workers, algorithm=algorithm, strategy=strategy,
            order=make_order(order_name, seed=seed), seed=seed, alpha=alpha,
        )
    with rec.span("distributed.shard_run", op_id, parent):
        envelopes = make_backend(backend).run_tasks(tasks, max_workers)
    outputs = [None] * workers
    for envelope in envelopes:
        outputs[envelope.index] = envelope.output
    with rec.span("distributed.merge", op_id, parent):
        outcome, comm = _merge(instance, plan, outputs, coordinator, options, transport)
    result = DistributedResult(
        cover=frozenset(outcome.cover),
        certificate=dict(outcome.certificate),
        comm=comm,
        shards=[out.report for out in outputs],
        coordinator=coordinator,
    )
    with rec.span("core.verify", op_id, parent):
        result.verify(instance)
    return {
        "cover": sorted(result.cover),
        "certificate": sorted(result.certificate.items()),
        "comm_words": comm.total_words,
        "peak_words": max(out.report.space.peak_words for out in outputs),
        "tasks": tasks,
    }


def traced_distribute(rec: SpanRecorder, op_id: str, path: Path, seed: int, skew: bool = True) -> Dict[str, object]:
    from repro.distributed.coordinator import CoordinatorOptions
    from repro.streaming.io import load_instance

    flags = cli_defaults("distribute", path)
    with rec.span("op.distribute", op_id) as op:
        with rec.span("streaming.load", op_id, op):
            instance = load_instance(path)
            instance.validate()
        out = decompose_distribute(
            rec, op_id, op, instance, seed, flags.workers, flags.algorithm,
            flags.strategy, flags.coordinator, flags.order, flags.alpha,
            flags.backend, flags.max_workers, flags.transport,
            CoordinatorOptions(
                threshold=flags.threshold,
                adaptive_threshold=flags.adaptive_threshold,
            ),
        )
    out["op"] = op
    tasks = out.pop("tasks")
    if skew:
        out["skew"] = shard_skew(tasks, flags.backend)
    return out


def shard_skew(tasks, backend: str) -> float:
    """max/mean of per-task time, each task run alone (outside the op)."""
    from repro.distributed.backends import make_backend

    times = []
    for task in tasks:
        start = time.perf_counter()
        make_backend(backend).run_tasks([task], 1)
        times.append(time.perf_counter() - start)
    return max(times) / statistics.mean(times)


def measure_traced(kind: str, path: Path, harness: HarnessInstance, run: BatchRun, probe: HostProbe, rec: SpanRecorder) -> Dict[str, float]:
    """Decompose the first ``TRACED_OPS`` ops of ``run``; per-layer metrics.

    Each traced op follows an untraced CLI op with the same seed, so
    ``bench.trace_overhead`` compares neighbours.  Both must give the
    cover the end-to-end op gave; ``parity_failures`` counts the ops
    where either does not, and every op if the CLI's defaults leave the
    decomposed path.
    """
    per_op: List[Dict[str, float]] = []
    parity_failures = 0
    off_path = undecomposed_defaults(kind, path)
    if off_path:
        run.ledger.problems.append(
            "traced decomposition is off the CLI's default path: " + ", ".join(off_path)
        )
    for index in range(min(TRACED_OPS, len(run.seeds))):
        op_seed = run.seeds[index]
        gc.collect()
        before = probe.measure()
        raw, code, output = run_cli_op(kind, path, op_seed, probe)
        untraced_ms = raw * correction_factor([before, probe.measure()]) * 1000.0
        cli_cover = parse_cli_cover(output) if code == 0 else None
        gc.collect()
        before = probe.measure()
        probe.op_started()
        try:
            if kind == "solve":
                out = traced_solve(rec, f"traced-{index}", path, op_seed)
            else:
                out = traced_distribute(rec, f"traced-{index}", path, op_seed, skew=index == 0)
        finally:
            probe.op_finished()
        factor = correction_factor([before, probe.measure()])
        if index == 0:
            first_skew = out.get("skew", 0.0)
        if off_path or not out["cover"] == cli_cover == run.covers[index]:
            parity_failures += 1
        if check_cover(harness, out["cover"], out["certificate"]):
            parity_failures += 1
        op = out["op"]
        layers = rec.layer_self_ms(op)
        named = {s.name: s.duration_ms for s in rec.children(op)}
        row = {
            "streaming.load_ms": named.get("streaming.load", 0.0),
            "streaming.stream_of_ms": named.get("streaming.stream_of", 0.0),
            "core.kk_run_ms": named.get("core.kk_run", 0.0),
            "core.verify_ms": named.get("core.verify", 0.0),
            "distributed.plan_ms": named.get("distributed.plan", 0.0),
            "distributed.shard_run_ms": named.get("distributed.shard_run", 0.0),
            "distributed.merge_ms": named.get("distributed.merge", 0.0),
            "bench.uncovered_ms": rec.self_ms(op),
            **{f"{layer}.self_ms": ms for layer, ms in layers.items()},
        }
        row = {name: ms * factor for name, ms in row.items()}
        row["bench.trace_overhead"] = op.duration_ms * factor / untraced_ms
        row["core.peak_words"] = float(out["peak_words"])
        row["distributed.comm_words"] = float(out.get("comm_words", 0))
        per_op.append(row)
    metrics = {name: statistics.mean(r[name] for r in per_op) for name in per_op[0]}
    metrics["distributed.shard_skew"] = float(first_skew)
    metrics["parity_failures"] = parity_failures
    metrics["bench.traced_ops"] = len(per_op)
    return metrics


