"""Throughput benchmark harness for the streaming hot path.

Measures end-to-end edges/sec (and peak RSS) of the three core one-pass
algorithms — KK, random-order (Algorithm 1) and the low-space
adversarial algorithm (Algorithm 2) — on a ladder of instance sizes.
Results are written to ``BENCH_perf.json`` at the repository root so
every future PR has a trajectory to regress against; CI runs the
``smoke`` tier and fails on a >2x edges/sec regression.

Three tiers:

* ``smoke``  — one small instance (~3e4 edges), seconds; used by CI.
* ``full``   — three sizes up to ~1e6 edges; the committed numbers.

Use :func:`run_bench` programmatically or ``scripts/run_perf_bench.py``
from the command line.
"""

from __future__ import annotations

import gc
import json
import math
import platform
import resource
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms import make_algorithm
from repro.core.adversarial import LowSpaceAdversarialAlgorithm
from repro.core.base import StreamingSetCoverAlgorithm
from repro.core.kk import KKAlgorithm, KKReferenceAlgorithm
from repro.core.random_order import RandomOrderAlgorithm
from repro.generators.random_instances import fixed_size_instance
from repro.obs.tracer import RecordingTracer
from repro.streaming.io import dump_instance, load_instance
from repro.streaming.orders import RandomOrder, make_order
from repro.streaming.reference import load_instance_reference, reference_stream_of
from repro.streaming.stream import ReplayableStream, stream_of

#: Benchmark tiers: label -> list of (config_name, n, m, set_size).
#: Stream length is m * set_size edges (fixed-size sets, all distinct).
TIERS: Dict[str, List[Tuple[str, int, int, int]]] = {
    "smoke": [
        ("small", 200, 1500, 20),  # 3.0e4 edges
    ],
    "full": [
        ("small", 300, 3000, 30),  # 9.0e4 edges
        ("medium", 600, 8000, 40),  # 3.2e5 edges
        ("large", 1000, 20000, 50),  # 1.0e6 edges
    ],
}


@dataclass
class BenchRecord:
    """One (algorithm, instance) timing measurement."""

    config: str
    algorithm: str
    n: int
    m: int
    stream_length: int
    seconds: float
    edges_per_sec: float
    peak_words: int
    cover_size: int
    max_rss_kb: int


def _algorithms(n: int, seed: int) -> Dict[str, Callable[[], StreamingSetCoverAlgorithm]]:
    """Fresh algorithm factories for one benchmark cell."""
    alpha = 2.0 * math.sqrt(n)
    return {
        "kk": lambda: KKAlgorithm(seed=seed),
        "random-order": lambda: RandomOrderAlgorithm(seed=seed),
        "adversarial": lambda: LowSpaceAdversarialAlgorithm(alpha=alpha, seed=seed),
    }


def _max_rss_kb() -> int:
    """Process high-water RSS in KiB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_bench(
    tier: str = "full",
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchRecord]:
    """Run one benchmark tier and return its records.

    Parameters
    ----------
    tier:
        ``"smoke"`` or ``"full"`` (see :data:`TIERS`).
    seed:
        Master seed for instance generation, stream order and algorithms.
    algorithms:
        Optional subset of ``{"kk", "random-order", "adversarial"}``.
    progress:
        Optional callback receiving one status line per measurement.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {sorted(TIERS)}")
    records: List[BenchRecord] = []
    for config, n, m, set_size in TIERS[tier]:
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        replayable = ReplayableStream(instance, RandomOrder(seed=seed))
        for name, factory in _algorithms(n, seed).items():
            if algorithms is not None and name not in algorithms:
                continue
            algorithm = factory()
            stream = replayable.fresh()
            start = time.perf_counter()
            result = algorithm.run(stream)
            seconds = time.perf_counter() - start
            record = BenchRecord(
                config=config,
                algorithm=name,
                n=n,
                m=m,
                stream_length=replayable.length,
                seconds=round(seconds, 4),
                edges_per_sec=round(replayable.length / max(seconds, 1e-9), 1),
                peak_words=result.space.peak_words,
                cover_size=result.cover_size,
                max_rss_kb=_max_rss_kb(),
            )
            records.append(record)
            if progress is not None:
                progress(
                    f"{config:>7} {name:<13} N={record.stream_length:>8} "
                    f"{record.edges_per_sec:>12,.0f} edges/s "
                    f"({record.seconds:.2f}s)"
                )
    return records


@dataclass
class TraceOverheadRecord:
    """Tracing-cost measurement for one (algorithm, instance) cell.

    ``seconds_off`` is the run with the default :class:`NullTracer`,
    ``seconds_on`` the identical run (same seed, same frozen stream)
    with a :class:`RecordingTracer` attached.  ``covers_identical``
    certifies the observability contract: tracing must never perturb
    the algorithm's output.
    """

    config: str
    algorithm: str
    stream_length: int
    seconds_off: float
    seconds_on: float
    overhead_fraction: float
    events: int
    covers_identical: bool


def run_trace_overhead(
    tier: str = "smoke",
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[TraceOverheadRecord]:
    """Measure the cost of structured tracing, disabled and enabled.

    For each benchmark cell the algorithm runs twice on the same frozen
    stream with the same seed: once untraced (the hot path must pay
    only ``tracer.enabled`` checks) and once with a recording tracer.
    Raises ``AssertionError`` if the two covers differ — tracing that
    changes results is a bug, not an overhead.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {sorted(TIERS)}")
    records: List[TraceOverheadRecord] = []
    for config, n, m, set_size in TIERS[tier]:
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        replayable = ReplayableStream(instance, RandomOrder(seed=seed))
        for name, factory in _algorithms(n, seed).items():
            if algorithms is not None and name not in algorithms:
                continue
            untraced = factory()
            start = time.perf_counter()
            result_off = untraced.run(replayable.fresh())
            seconds_off = time.perf_counter() - start

            tracer = RecordingTracer()
            traced = factory()
            traced.set_tracer(tracer)
            start = time.perf_counter()
            result_on = traced.run(replayable.fresh())
            seconds_on = time.perf_counter() - start
            tracer.finish()

            identical = (
                result_off.cover == result_on.cover
                and result_off.certificate == result_on.certificate
                and result_off.space.peak_words == result_on.space.peak_words
            )
            assert identical, (
                f"tracing perturbed {name} on {config}: covers/certificates/"
                "space must be bit-identical with and without a tracer"
            )
            record = TraceOverheadRecord(
                config=config,
                algorithm=name,
                stream_length=replayable.length,
                seconds_off=round(seconds_off, 4),
                seconds_on=round(seconds_on, 4),
                overhead_fraction=round(
                    seconds_on / max(seconds_off, 1e-9) - 1.0, 4
                ),
                events=len(tracer.events),
                covers_identical=identical,
            )
            records.append(record)
            if progress is not None:
                progress(
                    f"{config:>7} {name:<13} off={record.seconds_off:.3f}s "
                    f"on={record.seconds_on:.3f}s "
                    f"(+{100 * record.overhead_fraction:.1f}%, "
                    f"{record.events} events)"
                )
    return records


@dataclass
class DistributedScalingRecord:
    """One point of the distributed scaling surface: a (backend, W) cell.

    ``workers`` is the semantic shard count; ``max_workers`` the real
    executor parallelism (set equal to ``workers`` for the curve, so the
    point measures the speedup available at that shard width).
    ``backend`` names the execution backend; ``speedup_vs_serial`` is
    this cell's throughput over the serial backend at the same
    ``(config, workers)`` cell (``None`` for the serial rows
    themselves).
    """

    config: str
    backend: str
    workers: int
    max_workers: int
    algorithm: str
    coordinator: str
    stream_length: int
    seconds: float
    edges_per_sec: float
    speedup_vs_serial: Optional[float]
    cover_size: int
    total_comm_words: int
    max_message_words: int
    peak_shard_words: int


#: Backends swept by :func:`run_distributed_scaling`, serial first so
#: every later cell has its baseline available.
DISTRIBUTED_BACKENDS: Tuple[str, ...] = ("serial", "thread", "process")


def run_distributed_scaling(
    tier: str = "smoke",
    seed: int = 0,
    workers_grid: Sequence[int] = (1, 2, 4, 8),
    algorithm: str = "kk",
    coordinator: str = "chain",
    backends: Sequence[str] = DISTRIBUTED_BACKENDS,
    progress: Optional[Callable[[str], None]] = None,
) -> List[DistributedScalingRecord]:
    """Benchmark :func:`repro.distributed.run_distributed` over backend × W.

    Each grid point runs the full route → shard → merge pipeline with
    ``max_workers=W``, so the surface shows both the semantic effect of
    sharding (comm words grow with W) and the wall-clock effect of each
    execution backend.  The serial backend is always measured first so
    every (config, W) cell gets a ``speedup_vs_serial`` against the
    same-shaped serial run; the determinism contract makes every
    backend's semantic outputs identical, which the sweep asserts.
    """
    from repro.distributed import run_distributed

    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {sorted(TIERS)}")
    sweep = list(dict.fromkeys(["serial", *backends]))
    records: List[DistributedScalingRecord] = []
    for config, n, m, set_size in TIERS[tier]:
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        stream_length = instance.num_edges
        serial_seconds: dict = {}
        serial_cover: dict = {}
        for backend in sweep:
            for workers in workers_grid:
                start = time.perf_counter()
                result = run_distributed(
                    instance,
                    workers=workers,
                    algorithm=algorithm,
                    coordinator=coordinator,
                    seed=seed,
                    max_workers=workers,
                    backend=backend,
                )
                seconds = time.perf_counter() - start
                if backend == "serial":
                    serial_seconds[workers] = seconds
                    serial_cover[workers] = result.cover_size
                else:
                    assert result.cover_size == serial_cover[workers], (
                        f"backend {backend!r} diverged from serial at "
                        f"{config} W={workers}: determinism contract broken"
                    )
                baseline = serial_seconds.get(workers)
                speedup = (
                    None
                    if backend == "serial" or not baseline
                    else round(baseline / max(seconds, 1e-9), 3)
                )
                record = DistributedScalingRecord(
                    config=config,
                    backend=backend,
                    workers=workers,
                    max_workers=workers,
                    algorithm=algorithm,
                    coordinator=coordinator,
                    stream_length=stream_length,
                    seconds=round(seconds, 4),
                    edges_per_sec=round(
                        stream_length / max(seconds, 1e-9), 1
                    ),
                    speedup_vs_serial=speedup,
                    cover_size=result.cover_size,
                    total_comm_words=result.total_comm_words,
                    max_message_words=result.max_message_words,
                    peak_shard_words=int(
                        result.diagnostics.get("peak_shard_space_words", 0)
                    ),
                )
                records.append(record)
                if progress is not None:
                    speedup_note = (
                        "" if speedup is None else f" x{speedup:.2f} vs serial"
                    )
                    progress(
                        f"{config:>7} {backend:<7} W={workers:<2} "
                        f"{record.edges_per_sec:>12,.0f} edges/s "
                        f"cover={record.cover_size} "
                        f"comm={record.total_comm_words}w "
                        f"({record.seconds:.2f}s){speedup_note}"
                    )
    return records


@dataclass
class KKKernelRecord:
    """One vectorized-vs-scalar KK kernel cell: same stream, both paths.

    ``identical`` certifies the tentpole gate — the vectorized kernel
    must reproduce the scalar reference's cover, certificate, and peak
    space exactly on the benchmarked stream, or the measurement refuses
    to exist (``run_kk_kernel_bench`` raises).
    """

    config: str
    n: int
    m: int
    stream_length: int
    reference_seconds: float
    reference_edges_per_sec: float
    kernel_seconds: float
    kernel_edges_per_sec: float
    speedup: float
    cover_size: int
    identical: bool


def run_kk_kernel_bench(
    tier: str = "full",
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> List[KKKernelRecord]:
    """Benchmark the vectorized KK kernel against ``kk-reference``.

    Both algorithms consume the identical frozen stream with the same
    seed, so the scalar path's timing is a true like-for-like baseline
    and the equality assertion is exact, not statistical.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {sorted(TIERS)}")
    records: List[KKKernelRecord] = []
    for config, n, m, set_size in TIERS[tier]:
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        replayable = ReplayableStream(instance, RandomOrder(seed=seed))

        reference = KKReferenceAlgorithm(seed=seed)
        start = time.perf_counter()
        result_ref = reference.run(replayable.fresh())
        reference_seconds = time.perf_counter() - start

        kernel = KKAlgorithm(seed=seed)
        start = time.perf_counter()
        result_vec = kernel.run(replayable.fresh())
        kernel_seconds = time.perf_counter() - start

        identical = (
            result_vec.cover == result_ref.cover
            and result_vec.certificate == result_ref.certificate
            and result_vec.space.peak_words == result_ref.space.peak_words
        )
        assert identical, (
            f"vectorized kk diverged from kk-reference on {config}: the "
            "kernels must be byte-identical"
        )
        record = KKKernelRecord(
            config=config,
            n=n,
            m=m,
            stream_length=replayable.length,
            reference_seconds=round(reference_seconds, 4),
            reference_edges_per_sec=round(
                replayable.length / max(reference_seconds, 1e-9), 1
            ),
            kernel_seconds=round(kernel_seconds, 4),
            kernel_edges_per_sec=round(
                replayable.length / max(kernel_seconds, 1e-9), 1
            ),
            speedup=round(
                max(reference_seconds, 1e-9) / max(kernel_seconds, 1e-9), 2
            ),
            cover_size=len(result_vec.cover),
            identical=identical,
        )
        records.append(record)
        if progress is not None:
            progress(
                f"{config:>7} kk-kernel     "
                f"{record.reference_edges_per_sec:>12,.0f} -> "
                f"{record.kernel_edges_per_sec:>12,.0f} edges/s "
                f"(x{record.speedup:.1f}, identical)"
            )
    return records


@dataclass
class ShippingRecord:
    """Bytes-shipped-per-shard measurement for the process backend.

    Contrasts what one pooled dispatch serializes per task under
    pickled-edges shipping versus shared-memory spans on the same shard
    plan: ``pickle_*`` is O(shard edges), ``shm_*`` O(descriptor).  The
    segment itself (``segment_bytes``) is written once and mapped, not
    serialized per worker.
    """

    config: str
    workers: int
    stream_length: int
    pickle_total_bytes: int
    pickle_max_task_bytes: int
    shm_total_task_bytes: int
    shm_max_task_bytes: int
    segment_bytes: int
    reduction_factor: float
    shared_memory: bool


def run_shipping_bench(
    tier: str = "full",
    seed: int = 0,
    workers: int = 4,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ShippingRecord]:
    """Measure per-shard shipped bytes, pickled versus shared-memory.

    Builds the exact :class:`~repro.distributed.backends.ShardTask`
    records :func:`repro.distributed.run_distributed` would pool out,
    then pickles them both ways.  No algorithm runs — this isolates the
    serialization cost the zero-copy path removes.
    """
    from repro.distributed import build_shard_tasks
    from repro.distributed.shmem import (
        measure_shipping,
        shared_memory_available,
        ship_tasks,
    )

    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {sorted(TIERS)}")
    records: List[ShippingRecord] = []
    for config, n, m, set_size in TIERS[tier]:
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        tasks = build_shard_tasks(instance, workers=workers, seed=seed)
        pickled = measure_shipping(tasks, "pickle")
        shm_total = shm_max = segment_bytes = 0
        shipped_shm = False
        if shared_memory_available():
            shipped, segment = ship_tasks(tasks)
            if segment is not None:
                try:
                    shm = measure_shipping(shipped, "shared-memory", segment)
                finally:
                    segment.cleanup()
                shm_total = shm.total_task_bytes
                shm_max = shm.max_task_bytes
                segment_bytes = shm.segment_bytes
                shipped_shm = True
        record = ShippingRecord(
            config=config,
            workers=workers,
            stream_length=instance.num_edges,
            pickle_total_bytes=pickled.total_task_bytes,
            pickle_max_task_bytes=pickled.max_task_bytes,
            shm_total_task_bytes=shm_total,
            shm_max_task_bytes=shm_max,
            segment_bytes=segment_bytes,
            reduction_factor=round(
                pickled.total_task_bytes / max(shm_total, 1), 1
            ),
            shared_memory=shipped_shm,
        )
        records.append(record)
        if progress is not None:
            progress(
                f"{config:>7} shipping W={workers} "
                f"pickle={record.pickle_total_bytes:>12,}B -> "
                f"shm tasks={record.shm_total_task_bytes:>8,}B "
                f"(x{record.reduction_factor:,.0f} smaller, "
                f"segment {record.segment_bytes:,}B mapped)"
            )
    return records


@dataclass
class TransportRecord:
    """One (transport, coordinator) wire-measurement cell.

    ``parity_with_inproc`` certifies the transport gate: the cell's
    cover, certificate, and comm report are identical to the inproc
    run of the same shard plan (``run_transport_bench`` raises
    otherwise, so a committed ``False`` cannot exist — the field keeps
    the certification visible in the artifact).  ``overhead_ratio`` is
    measured wire bytes over 8 × metered words, ≥ 1 by construction of
    the wire format.
    """

    config: str
    transport: str
    coordinator: str
    codec: str
    workers: int
    seconds: float
    metered_words: int
    wire_bytes: int
    frames: int
    retransmits: int
    overhead_ratio: float
    parity_with_inproc: bool


def run_transport_bench(
    tier: str = "smoke",
    seed: int = 0,
    workers: int = 4,
    coordinators: Sequence[str] = ("union", "greedy", "chain", "tree"),
    progress: Optional[Callable[[str], None]] = None,
) -> List[TransportRecord]:
    """Benchmark the wire transports over coordinator × transport.

    Every cell reruns the same shard plan through one transport and
    records what the wire carried; the inproc cell of each coordinator
    is the parity baseline the other transports are asserted against.
    A sandbox that forbids binding skips the socket cells (they are
    simply absent from the records, mirroring the parity gate).
    """
    from repro.distributed import run_distributed
    from repro.distributed.transport import SocketTransport, make_transport
    from repro.errors import TransportError

    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {sorted(TIERS)}")
    records: List[TransportRecord] = []
    for config, n, m, set_size in TIERS[tier]:
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        for coordinator in coordinators:
            baseline = None
            for name in ("inproc", "loopback", "socket"):
                if name == "socket":
                    try:
                        transport = SocketTransport()
                    except TransportError:
                        if progress is not None:
                            progress(
                                f"{config:>7} socket  {coordinator:<7} "
                                "skipped (bind forbidden)"
                            )
                        continue
                else:
                    transport = make_transport(name)
                start = time.perf_counter()
                result = run_distributed(
                    instance,
                    workers=workers,
                    coordinator=coordinator,
                    seed=seed,
                    transport=transport,
                )
                seconds = time.perf_counter() - start
                if baseline is None:
                    baseline = result
                    parity = True
                else:
                    parity = (
                        result.cover == baseline.cover
                        and result.certificate == baseline.certificate
                        and result.comm == baseline.comm
                    )
                    assert parity, (
                        f"transport {name!r} diverged from inproc at "
                        f"{config}/{coordinator}: parity contract broken"
                    )
                wire = result.transport
                record = TransportRecord(
                    config=config,
                    transport=name,
                    coordinator=coordinator,
                    codec=wire.codec,
                    workers=workers,
                    seconds=round(seconds, 4),
                    metered_words=wire.metered_words,
                    wire_bytes=wire.total_bytes,
                    frames=wire.total_frames,
                    retransmits=wire.retransmits,
                    overhead_ratio=round(wire.overhead_ratio, 4),
                    parity_with_inproc=parity,
                )
                records.append(record)
                if progress is not None:
                    progress(
                        f"{config:>7} {name:<8} {coordinator:<7} "
                        f"{record.wire_bytes:>9,}B in {record.frames} frames "
                        f"({record.metered_words}w, "
                        f"x{record.overhead_ratio:.3f}, "
                        f"{record.seconds:.2f}s)"
                    )
    return records


@dataclass
class MergeLatencyRecord:
    """One (coordinator, τ-mode, W) cell of the merge critical path.

    ``logical_steps`` and ``idle_ticks`` come off the async simulator's
    logical clock — the chain's state relay costs ``2(W-1)`` steps while
    the tournament's round-batched hand-offs cost ``2·⌈log₂W⌉``, and
    ``merge_rounds`` records the dependency depth directly.  The tree
    pays in ``max_message_words`` (leaves ship witnesses for every held
    element); ``cover_size`` shows what adaptive τ re-estimation buys
    back.  Every cell is verified against its instance and checked for
    sync/async cover parity before the measurement exists.
    """

    config: str
    coordinator: str
    threshold_mode: str
    workers: int
    seconds: float
    logical_steps: int
    idle_ticks: int
    merge_rounds: int
    cover_size: int
    total_comm_words: int
    max_message_words: int


def run_merge_bench(
    tier: str = "smoke",
    seed: int = 0,
    workers_grid: Sequence[int] = (2, 4, 8, 16),
    progress: Optional[Callable[[str], None]] = None,
) -> List[MergeLatencyRecord]:
    """Benchmark merge topologies: chain vs tournament, fixed vs adaptive τ.

    Each cell runs the async simulator (serial backend, fault-free
    default schedule) so the logical clock measures pure dependency
    depth; the same cell is re-run synchronously and the covers are
    asserted identical.  At every ``W >= 8`` the tree's critical path is
    asserted strictly below the chain's — the tentpole claim, refusing
    to record numbers that do not show it.
    """
    from repro.distributed import run_distributed
    from repro.distributed.asyncsim import run_distributed_async

    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {sorted(TIERS)}")
    records: List[MergeLatencyRecord] = []
    for config, n, m, set_size in TIERS[tier]:
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        steps_at: Dict[Tuple[str, int], int] = {}
        for workers in workers_grid:
            for coordinator in ("chain", "tree"):
                for adaptive in (False, True):
                    mode = "adaptive" if adaptive else "fixed"
                    start = time.perf_counter()
                    result = run_distributed_async(
                        instance,
                        workers=workers,
                        coordinator=coordinator,
                        adaptive_threshold=adaptive,
                        seed=seed,
                        backend="serial",
                        schedule_seed=seed,
                    )
                    seconds = time.perf_counter() - start
                    result.verify(instance)
                    sync = run_distributed(
                        instance,
                        workers=workers,
                        coordinator=coordinator,
                        adaptive_threshold=adaptive,
                        seed=seed,
                        backend="serial",
                    )
                    assert result.cover == sync.cover, (
                        f"async/sync cover parity broken at {config}/"
                        f"{coordinator}/{mode} W={workers}"
                    )
                    steps = int(result.diagnostics["logical_steps"])
                    steps_at[(f"{coordinator}/{mode}", workers)] = steps
                    record = MergeLatencyRecord(
                        config=config,
                        coordinator=coordinator,
                        threshold_mode=mode,
                        workers=workers,
                        seconds=round(seconds, 4),
                        logical_steps=steps,
                        idle_ticks=int(result.diagnostics["idle_ticks"]),
                        merge_rounds=int(
                            result.diagnostics.get("merge_rounds", workers - 1)
                        ),
                        cover_size=result.cover_size,
                        total_comm_words=result.total_comm_words,
                        max_message_words=result.max_message_words,
                    )
                    records.append(record)
                    if progress is not None:
                        progress(
                            f"{config:>7} {coordinator:<5} {mode:<8} "
                            f"W={workers:<2} steps={record.logical_steps:<3} "
                            f"rounds={record.merge_rounds:<2} "
                            f"cover={record.cover_size:<3} "
                            f"maxmsg={record.max_message_words}w "
                            f"({record.seconds:.2f}s)"
                        )
            if workers >= 8:
                for mode in ("fixed", "adaptive"):
                    tree_steps = steps_at[(f"tree/{mode}", workers)]
                    chain_steps = steps_at[(f"chain/{mode}", workers)]
                    assert tree_steps < chain_steps, (
                        f"tournament merge lost its latency edge at {config}/"
                        f"{mode} W={workers}: tree {tree_steps} steps vs "
                        f"chain {chain_steps} — critical path must be "
                        "Theta(log W)"
                    )
    return records


def check_kk_floor(
    current: Sequence[BenchRecord], seed_baseline: Sequence[dict]
) -> List[str]:
    """Fail if kk throughput falls back to the scalar seed baseline.

    The floor is the *fastest* committed seed-baseline kk cell: after
    the kernel rework, even the smoke tier must clear what the scalar
    implementation ever achieved.  Returns failure strings (empty =
    pass); an absent baseline passes vacuously.
    """
    floor = max(
        (
            row["edges_per_sec"]
            for row in seed_baseline
            if row.get("algorithm") == "kk"
        ),
        default=0.0,
    )
    failures: List[str] = []
    for record in current:
        if record.algorithm != "kk":
            continue
        if record.edges_per_sec < floor:
            failures.append(
                f"{record.config}/kk: {record.edges_per_sec:,.0f} edges/s is "
                f"below the scalar seed-baseline floor of {floor:,.0f} "
                "edges/s — the vectorized kernel has regressed"
            )
    return failures


#: Instance of the solve-floor gate: the 250k-edge ``solve-250k`` shape.
SOLVE_FLOOR_SHAPE = (2000, 5000, 50)
#: Runs per pipeline; each keeps its fastest.
SOLVE_FLOOR_RUNS = 2


@dataclass
class SolvePipelineRecord:
    """Best-of-runs timing of one solve pipeline, file to verified cover."""

    pipeline: str
    edges: int
    seconds: float
    stage_ms: Dict[str, float]


def _time_solve(path: Path, seed: int, load, make_stream):
    """One CLI-equivalent ``solve``: (stage seconds, result)."""
    marks = [time.perf_counter()]
    instance = load(path)
    instance.validate()
    marks.append(time.perf_counter())
    stream = make_stream(instance, make_order("random", seed=seed))
    marks.append(time.perf_counter())
    result = make_algorithm("kk", instance, seed=seed).run(stream)
    marks.append(time.perf_counter())
    result.verify(instance)
    marks.append(time.perf_counter())
    spans = (b - a for a, b in zip(marks, marks[1:]))
    return dict(zip(("load", "stream_of", "kk", "verify"), spans)), result


def run_solve_floor(
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[SolvePipelineRecord, SolvePipelineRecord, List[str]]:
    """Time the columnar solve against the tuple reference in one process.

    Both pipelines load the same generated file, order it with the same
    seeded ``random`` order, run ``kk`` and verify the cover; the runs
    alternate and each pipeline keeps its fastest.  Returns the two
    records and the output mismatches between them (empty when covers,
    certificates and space reports agree on every run).
    """
    n, m, set_size = SOLVE_FLOOR_SHAPE
    pipelines = {
        "columnar": (load_instance, stream_of),
        "tuple-reference": (load_instance_reference, reference_stream_of),
    }
    best: Dict[str, Dict[str, float]] = {}
    mismatches: List[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        dump_instance(fixed_size_instance(n, m, set_size, seed=seed), path)
        for run in range(SOLVE_FLOOR_RUNS):
            outputs = {}
            for name, (load, make_stream) in pipelines.items():
                gc.collect()
                stages, result = _time_solve(path, seed + run, load, make_stream)
                outputs[name] = result
                if name not in best or sum(stages.values()) < sum(best[name].values()):
                    best[name] = stages
                if progress is not None:
                    progress(f"  {name:<16} run {run}: {sum(stages.values()):.3f}s")
            fast, ref = outputs["columnar"], outputs["tuple-reference"]
            if (fast.cover, fast.certificate, fast.space) != (ref.cover, ref.certificate, ref.space):
                mismatches.append(f"run {run} (seed {seed + run}): columnar output differs from the tuple reference")
    records = tuple(
        SolvePipelineRecord(
            pipeline=name,
            edges=m * set_size,
            seconds=sum(stages.values()),
            stage_ms={k: v * 1000.0 for k, v in stages.items()},
        )
        for name, stages in best.items()
    )
    return records[0], records[1], mismatches


def check_solve_floor(
    columnar: SolvePipelineRecord,
    reference: SolvePipelineRecord,
    mismatches: Sequence[str],
    factor: float = 2.0,
) -> List[str]:
    """Fail unless the columnar solve is ``factor``x the reference, same output."""
    failures = list(mismatches)
    speedup = reference.seconds / columnar.seconds
    if speedup < factor:
        failures.append(
            f"columnar solve at {columnar.edges:,} edges took "
            f"{columnar.seconds:.3f}s against the tuple reference's "
            f"{reference.seconds:.3f}s (x{speedup:.2f}, floor x{factor:.1f})"
        )
    return failures


def records_to_json(records: Sequence[object]) -> List[dict]:
    """Plain-dict form of dataclass records, ready for ``json.dump``."""
    return [asdict(r) for r in records]


def load_bench_file(path: Path) -> dict:
    """Read a ``BENCH_perf.json`` file (empty dict if absent)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def write_bench_file(
    path: Path,
    smoke: Optional[Sequence[BenchRecord]] = None,
    full: Optional[Sequence[BenchRecord]] = None,
    seed_baseline: Optional[List[dict]] = None,
    distributed: Optional[Sequence[DistributedScalingRecord]] = None,
    kk_kernel: Optional[Sequence[KKKernelRecord]] = None,
    shipping: Optional[Sequence[ShippingRecord]] = None,
    transport: Optional[Sequence[TransportRecord]] = None,
    merge: Optional[Sequence[MergeLatencyRecord]] = None,
) -> dict:
    """Write ``BENCH_perf.json``, preserving any recorded seed baseline.

    ``seed_baseline`` holds the pre-optimization ("before") numbers; it
    is kept verbatim across re-runs so the speedup trajectory stays
    visible in the committed file.  Each of ``smoke``/``full``/
    ``distributed``/``kk_kernel``/``shipping``/``transport``/``merge``
    replaces its section when given and preserves the committed section
    when ``None`` — so a
    distributed-only run does not clobber the throughput ladder, and
    vice versa.
    """
    existing = load_bench_file(path)

    def section(records, key: str) -> List[dict]:
        if records is None:
            return existing.get(key, [])
        return records_to_json(records)

    payload = {
        "schema": 5,
        "description": (
            "Hot-path throughput benchmark; see scripts/run_perf_bench.py. "
            "'seed_baseline' is the pre-optimization measurement, "
            "'full'/'smoke' are the current code, 'distributed' the "
            "backend x W scaling surface of the sharded executor "
            "(speedup_vs_serial compares each backend against the serial "
            "backend at the same shard width), 'kk_kernel' the vectorized "
            "kk kernel vs the scalar kk-reference on identical streams, "
            "'shipping' the process backend's per-task serialized "
            "bytes under pickled-edges vs shared-memory span shipping, "
            "'transport' the wire layer's measured bytes/frames per "
            "(transport, coordinator) cell with the bytes-per-word "
            "overhead ratio (>= 1 by construction; parity_with_inproc "
            "certifies identical covers/comm reports across transports), "
            "and 'merge' the async-clock critical path of chain vs "
            "tournament merge under fixed vs adaptive tau (tree "
            "logical_steps grow as Theta(log W) vs the chain's Theta(W); "
            "every cell is verified and sync/async cover parity is "
            "asserted before the numbers are recorded). "
            "Caveat: numbers committed from a single-core container "
            "cannot show process-backend speedup; the CI artifact carries "
            "the multi-core measurement."
        ),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "seed_baseline": (
            seed_baseline
            if seed_baseline is not None
            else existing.get("seed_baseline", [])
        ),
        "smoke": section(smoke, "smoke"),
        "full": section(full, "full"),
        "distributed": section(distributed, "distributed"),
        "kk_kernel": section(kk_kernel, "kk_kernel"),
        "shipping": section(shipping, "shipping"),
        "transport": section(transport, "transport"),
        "merge": section(merge, "merge"),
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return payload


def check_regression(
    current: Sequence[BenchRecord],
    committed: Sequence[dict],
    factor: float = 2.0,
) -> List[str]:
    """Compare a smoke run against committed numbers.

    Returns a list of human-readable failure strings, one per
    (config, algorithm) cell whose edges/sec dropped by more than
    ``factor`` versus the committed measurement.  An empty list means
    no regression.
    """
    baseline = {
        (row["config"], row["algorithm"]): row["edges_per_sec"]
        for row in committed
    }
    failures: List[str] = []
    for record in current:
        key = (record.config, record.algorithm)
        reference = baseline.get(key)
        if reference is None or reference <= 0:
            continue
        if record.edges_per_sec * factor < reference:
            failures.append(
                f"{record.config}/{record.algorithm}: "
                f"{record.edges_per_sec:,.0f} edges/s is more than {factor}x "
                f"below the committed {reference:,.0f} edges/s"
            )
    return failures


def speedup_table(
    before: Sequence[dict], after: Sequence[BenchRecord]
) -> List[Tuple[str, str, float, float, float]]:
    """Rows of (config, algorithm, before, after, speedup) for reporting."""
    by_key = {(r["config"], r["algorithm"]): r["edges_per_sec"] for r in before}
    rows = []
    for record in after:
        ref = by_key.get((record.config, record.algorithm))
        if ref:
            rows.append(
                (
                    record.config,
                    record.algorithm,
                    ref,
                    record.edges_per_sec,
                    record.edges_per_sec / ref,
                )
            )
    return rows
