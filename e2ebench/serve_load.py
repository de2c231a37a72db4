"""The ``serve-mixed`` workload: a server process and two closed-loop clients.

The benchmark starts ``repro-setcover serve`` (as ``python -m repro.cli
serve``) with default pool and queue settings, loads two small seeded
instances through :class:`~repro.serve.client.ServeClient`, and replays
its own seeded request list over two connections, each sending its next
request only when the previous reply is in.  Requests go out in bursts;
between bursts nothing is in flight and the host probe runs, so every
request is corrected by the probes on either side of its burst.

Replies are kept and checked after the load, against the harness's own
copies of the instances.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from probe import HostProbe, correction_factor
from spans import SpanRecorder
from startup import SETUP_SAMPLES, child_env
from stats import percentile
from verify import HarnessInstance, OpLedger, check_cover

#: The two instances the server holds, each named by a request with
#: equal chance: name -> shape.
INSTANCES = {
    "planted": dict(n=300, m=60, opt_size=10),
    "zipf": dict(n=200, m=80),
}
#: Request kinds and their weights in the mix.
MIX = (("solve", 3), ("distribute", 1), ("chaos", 1))
CHAOS_FAULTS = ("drop", "duplicate", "corrupt")
CHAOS_RATE = 0.1
CHAOS_POLICY = "best_effort"
WORKERS = 4
#: Closed-loop client connections (the host has two cores).
CLIENTS = 2
#: Requests per burst; probes run between bursts.
BURST = 40
#: ``cover_size`` is the mean over the verified, non-degraded replies
#: among the first this many requests of the list, so it is the same on
#: every run.
COVER_REQUESTS = 1000
#: Share of ``--seconds`` the traced phase of a traced run lasts; half
#: its bursts are traced.
TRACED_SHARE = 1 / 2
#: Length of the request list; a run that would need more fails.
LIST_LENGTH = 60_000
#: Seconds to wait for a server to write its port file.
READY_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    fields: Dict[str, Any]


def request_list(seed: int, count: int) -> List[Request]:
    """The first ``count`` requests of the seeded list.

    The list is made of shuffled blocks, each holding every (kind,
    instance) pair as often as the mix weights it: a block of ten holds
    three solves, one distribute and one chaos request on each instance.
    So every burst carries the exact mix, and a run's latency sample does
    not drift with how a random draw happened to split the kinds.
    """
    rng = random.Random(seed)
    block = [
        (kind, name) for kind, weight in MIX for name in sorted(INSTANCES)
        for _ in range(weight)
    ]
    out = []
    for index in range(count):
        if index % len(block) == 0:
            rng.shuffle(block)
        kind, name = block[index % len(block)]
        fields: Dict[str, Any] = {"instance": name, "seed": rng.getrandbits(31)}
        if kind == "distribute":
            fields["workers"] = WORKERS
        else:
            fields["order"] = "random"
        if kind == "chaos":
            fields.update(
                fault_kind=CHAOS_FAULTS[rng.randrange(len(CHAOS_FAULTS))],
                fault_rate=CHAOS_RATE,
                policy=CHAOS_POLICY,
            )
        out.append(Request(index, kind, fields))
    return out


def generate_instances(seed: int) -> Dict[str, Tuple[object, HarnessInstance]]:
    """Seeded instances: name -> (program instance, harness copy)."""
    from repro.generators.planted import planted_partition_instance
    from repro.generators.zipf import zipf_instance

    made = {
        "planted": planted_partition_instance(seed=seed, **INSTANCES["planted"]).instance,
        "zipf": zipf_instance(seed=seed + 1, **INSTANCES["zipf"]),
    }
    return {
        name: (instance, HarnessInstance.of(instance.n, instance.sets()))
        for name, instance in made.items()
    }


class ServerProcess:
    """One ``serve`` process; :meth:`stop` always ends it."""

    def __init__(self, src: Path, bench_dir: Path, workdir: Path, tag: int) -> None:
        self.port_file = workdir / f"port-{tag}"
        self.port_file.unlink(missing_ok=True)
        self.log = open(workdir / f"serve-{tag}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--port-file", str(self.port_file)],
            env=child_env(src, bench_dir),
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.port = 0

    def wait_ready(self) -> int:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            try:
                text = self.port_file.read_text(encoding="utf-8")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
                return self.port
            time.sleep(0.002)
        raise RuntimeError("server did not become ready")

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (VmHWM) in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        from repro.errors import ReproError
        from repro.serve.client import ServeClient

        try:
            if self.port and self.proc.poll() is None:
                with ServeClient(port=self.port, timeout=10.0) as client:
                    client.shutdown()
                self.proc.wait(timeout=30)
        except (ReproError, OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.log.close()


def start_ready_server(src: Path, bench_dir: Path, workdir: Path, tag: int, instances, probe: HostProbe) -> Tuple[ServerProcess, float, float]:
    """Start a server and load both instances: (server, corrected s, raw s)."""
    from repro.serve.client import ServeClient

    before = probe.measure()
    probe.op_started()
    start = time.perf_counter()
    server = ServerProcess(src, bench_dir, workdir, tag)
    try:
        port = server.wait_ready()
        with ServeClient(port=port) as client:
            for name, (instance, _) in sorted(instances.items()):
                client.load(name, instance)
    except BaseException:
        probe.op_finished()
        server.stop()
        raise
    raw = time.perf_counter() - start
    probe.op_finished()
    after = probe.measure()
    return server, raw * correction_factor([before, after]), raw


def measure_setup(src: Path, bench_dir: Path, workdir: Path, instances, probe: HostProbe) -> Tuple[ServerProcess, float, float]:
    """Median of ``SETUP_SAMPLES`` fresh set-ups; the last server stays up."""
    corrected_s, raw_s = [], []
    server = None
    for tag in range(SETUP_SAMPLES):
        if server is not None:
            server.stop()
        server, corr, raw = start_ready_server(src, bench_dir, workdir, tag, instances, probe)
        corrected_s.append(corr)
        raw_s.append(raw)
    return server, statistics.median(corrected_s), statistics.median(raw_s)


@dataclass
class Reply:
    request: Request
    raw_s: float
    burst: int
    traced: bool = False
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    detail: str = ""


def _send(client, request: Request) -> Dict[str, Any]:
    if request.kind == "distribute":
        return client.distribute(**request.fields)
    return client.solve(**request.fields)


@dataclass
class LoadPhase:
    """Replies and per-burst timings of one closed-loop phase."""

    replies: List[Reply] = field(default_factory=list)
    burst_raw_s: List[float] = field(default_factory=list)
    burst_factor: List[float] = field(default_factory=list)


def run_phase(port: int, requests: List[Request], start_index: int, seconds: float, probe: HostProbe, rec: Optional[SpanRecorder] = None) -> LoadPhase:
    """Bursts of ``BURST`` requests until ``seconds`` have been measured.

    With ``rec``, every odd burst wraps each client call in spans and the
    even bursts run untraced, so the two can be compared side by side;
    such a phase runs at least three bursts of each, so every request
    kind has the 20 traced samples its p50 needs.
    """
    from repro.errors import AdmissionError, ReproError, TransportError
    from repro.serve.client import ServeClient

    phase = LoadPhase()
    lock = threading.Lock()
    clients = [ServeClient(port=port) for _ in range(CLIENTS)]
    pool = ThreadPoolExecutor(max_workers=CLIENTS)
    cursor = [start_index]

    def worker(client, stop: int, burst: int) -> List[Reply]:
        out = []
        while True:
            with lock:
                index = cursor[0]
                if index >= stop:
                    return out
                cursor[0] += 1
            request = requests[index]
            op_id = f"req-{index}"
            traced = rec is not None and burst % 2 == 1
            reply = Reply(request, 0.0, burst, traced=traced)
            start = time.perf_counter()
            try:
                if traced:
                    with rec.span(f"op.{request.kind}", op_id) as op:
                        with rec.span(f"serve.{request.kind}", op_id, op):
                            reply.result = _send(client, request)
                else:
                    reply.result = _send(client, request)
            except AdmissionError as exc:
                reply.error, reply.detail = "admission", str(exc)
            except TransportError as exc:
                reply.error, reply.detail = "transport", str(exc)
            except ReproError as exc:
                reply.error, reply.detail = "remote", str(exc)
            reply.raw_s = time.perf_counter() - start
            out.append(reply)

    try:
        started = time.perf_counter()
        before = probe.measure()
        burst = 0
        min_bursts = 6 if rec is not None else 1
        while time.perf_counter() - started < seconds or burst < min_bursts:
            stop = cursor[0] + BURST
            if stop > len(requests):
                raise RuntimeError("request list exhausted; raise its length")
            probe.op_started()
            burst_start = time.perf_counter()
            try:
                futures = [pool.submit(worker, c, stop, burst) for c in clients]
                replies = [r for f in futures for r in f.result()]
            finally:
                burst_raw = time.perf_counter() - burst_start
                probe.op_finished()
            after = probe.measure()
            phase.replies.extend(replies)
            phase.burst_raw_s.append(burst_raw)
            phase.burst_factor.append(correction_factor([before, after]))
            before = after
            burst += 1
    finally:
        pool.shutdown(wait=True)
        for client in clients:
            client.close()
    return phase


def check_replies(phase: LoadPhase, harness: Dict[str, HarnessInstance]) -> OpLedger:
    """Classify every reply; the ledger's latencies are corrected seconds."""
    ledger = OpLedger()
    for reply in phase.replies:
        if reply.error is not None:
            ledger.record_failure(reply.error, reply.detail)
            continue
        result = reply.result or {}
        request = reply.request
        degraded = bool(result.get("degraded"))
        problems = []
        if degraded and request.kind != "chaos":
            problems.append(f"{request.kind} reply marked degraded")
        if result.get("instance") != request.fields["instance"] or result.get("seed") != request.fields["seed"]:
            problems.append("reply does not echo the request")
        problems += check_cover(
            harness[request.fields["instance"]],
            [int(s) for s in result.get("cover", ())],
            [(int(u), int(s)) for u, s in result.get("certificate", ())],
            partial=degraded,
        )
        if problems:
            ledger.record_failure("invalid", "; ".join(problems[:3]))
        else:
            ledger.record_ok(reply.raw_s * phase.burst_factor[reply.burst], reply.raw_s)
    return ledger


def e2e_metrics(phase: LoadPhase, ledger: OpLedger, setup_s: float, rss_mb: float) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(end-to-end metrics, raw twins and sample counts) of one phase.

    A degraded chaos reply counts in ``ok_frac`` but not in
    ``cover_size``: its cover is salvaged from a damaged stream and may
    be partial, so more degradation must not read as smaller covers.
    """
    first = [
        len(r.result["cover"]) for r, lat in zip(phase.replies, ledger.latencies)
        if r.request.index < COVER_REQUESTS and lat != float("inf")
        and not r.result.get("degraded")
    ]
    corrected_wall = sum(raw * f for raw, f in zip(phase.burst_raw_s, phase.burst_factor))
    raw_wall = sum(phase.burst_raw_s)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": percentile(ledger.latencies, 50) * 1000.0,
        "throughput_rps": ledger.ok / corrected_wall,
        "peak_rss_mb": rss_mb,
        "cover_size": statistics.mean(first) if first else 0.0,
        "ok_frac": ledger.ok_frac,
    }
    detail = {
        "latency_samples": len(ledger.latencies),
        "cover_samples": len(first),
        "bursts": len(phase.burst_raw_s),
        "latency_p90_ms": percentile(ledger.latencies, 90) * 1000.0,
        "raw_latency_p50_ms": percentile(ledger.raw_latencies, 50) * 1000.0,
        "raw_throughput_rps": ledger.ok / raw_wall,
    }
    return metrics, detail


# -- traced phase: per-layer metrics and batch-twin parity -------------------


def twin(rec: SpanRecorder, request: Request, reply: Dict[str, Any], instance, flags) -> Dict[str, Any]:
    """Re-run one served request in-process through the layers' public calls."""
    from repro.algorithms import make_algorithm
    from repro.distributed.coordinator import CoordinatorOptions
    from repro.faults.injectors import FaultSpec, inject
    from repro.faults.resilient import ResilientAlgorithm
    from repro.streaming.orders import make_order
    from repro.streaming.stream import stream_of

    from batch import decompose_distribute

    op_id = f"twin-{request.index}"
    f = request.fields
    algorithm_name = reply["algorithm"]
    with rec.span(f"twin.{request.kind}", op_id) as op:
        if request.kind == "distribute":
            out = decompose_distribute(
                rec, op_id, op, instance, f["seed"], f["workers"],
                algorithm_name, reply["strategy"], reply["coordinator"],
                reply["order"], None, flags.backend, flags.max_workers, None,
                CoordinatorOptions(),
            )
            return {"op": op, **out}
        with rec.span("streaming.stream_of", op_id, op):
            stream = stream_of(instance, make_order(f["order"], seed=f["seed"]))
        algorithm = make_algorithm(algorithm_name, instance, seed=f["seed"], alpha=None)
        if request.kind == "solve":
            with rec.span("core.kk_run", op_id, op):
                result = algorithm.run(stream)
            with rec.span("core.verify", op_id, op):
                result.verify(instance)
        else:
            with rec.span("core.resilient_run", op_id, op):
                faulty = inject(stream, [FaultSpec(kind=f["fault_kind"], rate=f["fault_rate"], seed=f["seed"])])
                result = ResilientAlgorithm(algorithm, policy=f["policy"]).run(faulty).result
        cover = sorted(result.cover) if result is not None else []
        peak = result.space.peak_words if result is not None else 0
    return {"op": op, "cover": cover, "peak_words": peak}


def traced_metrics(phase: LoadPhase, ledger: OpLedger, rec: SpanRecorder, loaded: Dict[str, object], stats: Dict[str, Any], probe: HostProbe) -> Dict[str, float]:
    """Per-layer metrics of the traced bursts, with twin parity per request.

    Spans of served requests are corrected by their burst's probes; the
    twins run after the load on the instances the server was sent,
    between two probes of their own.  Instances reach the server with
    ``client.load``, never from a file, so ``streaming.load_ms`` is 0.
    """
    from repro.cli import build_parser

    flags = build_parser().parse_args(["serve"])
    before = probe.measure()

    traced = [(r, lat) for r, lat in zip(phase.replies, ledger.latencies) if r.traced]
    untraced = [lat for r, lat in zip(phase.replies, ledger.latencies) if not r.traced]
    ok = [(r, lat) for r, lat in traced if lat != float("inf")]
    parity_failures = ledger.invalid
    by_kind: Dict[str, List[float]] = {kind: [] for kind, _ in MIX}
    compute, overhead = [], []
    rows: List[Dict[str, float]] = []
    chaos_sent = sum(1 for r, _ in traced if r.request.kind == "chaos")
    degraded = 0
    for reply, latency in ok:
        factor = phase.burst_factor[reply.burst]
        by_kind[reply.request.kind].append(latency * 1000.0)
        elapsed = float(reply.result["elapsed_ms"]) * factor
        compute.append(elapsed)
        overhead.append(latency * 1000.0 - elapsed)
        degraded += bool(reply.result.get("degraded"))
        out = twin(rec, reply.request, reply.result, loaded[reply.request.fields["instance"]], flags)
        if [int(s) for s in reply.result["cover"]] != out["cover"]:
            parity_failures += 1
        named = {s.name: s.duration_ms for s in rec.children(out["op"])}
        rows.append({
            "streaming.stream_of_ms": named.get("streaming.stream_of"),
            "core.kk_run_ms": named.get("core.kk_run"),
            "core.verify_ms": named.get("core.verify"),
            "distributed.plan_ms": named.get("distributed.plan"),
            "distributed.shard_run_ms": named.get("distributed.shard_run"),
            "distributed.merge_ms": named.get("distributed.merge"),
            "distributed.comm_words": out.get("comm_words"),
            "core.peak_words": out["peak_words"],
        })
    twin_factor = correction_factor([before, probe.measure()])
    burst_of = {f"req-{r.request.index}": r.burst for r in phase.replies}
    op_spans = [s for s in rec.spans if s.name.startswith("op.")]
    op_factor = [phase.burst_factor[burst_of[s.op_id]] for s in op_spans]
    serve_self = [rec.layer_self_ms(s)["serve"] * f for s, f in zip(op_spans, op_factor)]
    uncovered = [rec.self_ms(s) * f for s, f in zip(op_spans, op_factor)]
    twin_spans = [s for s in rec.spans if s.name.startswith("twin.")]
    twin_layers = [rec.layer_self_ms(s) for s in twin_spans]

    def mean_of(name: str) -> float:
        values = [r[name] for r in rows if r[name] is not None]
        mean = statistics.mean(values) if values else 0.0
        return mean * twin_factor if name.endswith("_ms") else mean

    metrics = {name: mean_of(name) for name in rows[0]}
    metrics.update({
        "streaming.load_ms": 0.0,
        "serve.compute_ms_p50": percentile(compute, 50),
        "serve.overhead_ms_p50": percentile(overhead, 50),
        "serve.queued_total": float(stats["pool"]["queued_total"]),
        "serve.rejected": float(stats["pool"]["rejected"]),
        "serve.degraded_frac": degraded / chaos_sent if chaos_sent else 0.0,
        "serve.self_ms": statistics.mean(serve_self),
        "bench.uncovered_ms": statistics.mean(uncovered),
        "bench.trace_overhead": percentile([lat for _, lat in traced], 50) / percentile(untraced, 50),
        "parity_failures": parity_failures,
        "bench.traced_ops": len(op_spans),
    })
    for kind, values in by_kind.items():
        metrics[f"serve.{kind}.latency_p50_ms"] = percentile(values, 50)
    for layer in ("streaming", "core", "distributed"):
        metrics[f"{layer}.self_ms"] = statistics.mean(t[layer] for t in twin_layers) * twin_factor
    return metrics
