"""Run one benchmark workload and print its metrics as the last line.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload solve-250k --seed 1 --seconds 15 --trace 0

The program is imported from the checkout's ``src`` directory and
nowhere else; without it the run fails before measuring anything.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries sample counts, raw (uncorrected) twins and failure details.
Spans of a traced run and the details are also written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Any, Callable, Dict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def run_batch(kind: str, args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    import batch
    from probe import HostProbe
    from spans import SpanRecorder
    from startup import time_cli_import

    probe = HostProbe()
    setup_s, raw_setup_s = time_cli_import(SRC, BENCH_DIR)
    path, harness = batch.generate_instance(args.seed, workdir)
    run = batch.measure_e2e(kind, path, harness, args.seed, args.seconds, probe)
    e2e, detail = batch.e2e_metrics(run)
    e2e["setup_s"] = setup_s
    detail["raw_setup_s"] = raw_setup_s
    per_layer: Dict[str, float] = {}
    rec = SpanRecorder()
    parity_failures = 0
    if args.trace:
        per_layer = batch.measure_traced(kind, path, harness, run, probe, rec)
        parity_failures = per_layer.pop("parity_failures")
    return finish(run.ledger, probe, rec, e2e, detail, per_layer, parity_failures)


def run_serve(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    from probe import all_cpus, keep_awake

    cpus = all_cpus()
    with keep_awake(cpus):
        return measure_serve(args, workdir, cpus)


def measure_serve(args: argparse.Namespace, workdir: Path, cpus) -> Dict[str, Any]:
    import serve_load
    from probe import HostProbe
    from repro.serve.client import ServeClient
    from spans import SpanRecorder

    probe = HostProbe(cpus=cpus)
    instances = serve_load.generate_instances(args.seed)
    harness = {name: h for name, (_, h) in instances.items()}
    requests = serve_load.request_list(args.seed, serve_load.LIST_LENGTH)
    server, setup_s, raw_setup_s = serve_load.measure_setup(
        SRC, BENCH_DIR, workdir, instances, probe
    )
    rec = SpanRecorder()
    per_layer: Dict[str, float] = {}
    parity_failures = 0
    try:
        phase = serve_load.run_phase(server.port, requests, 0, args.seconds, probe)
        rss_mb = server.peak_rss_mb()
        ledger = serve_load.check_replies(phase, harness)
        e2e, detail = serve_load.e2e_metrics(phase, ledger, setup_s, rss_mb)
        detail["raw_setup_s"] = raw_setup_s
        if args.trace:
            traced = serve_load.run_phase(
                server.port, requests, len(phase.replies),
                args.seconds * serve_load.TRACED_SHARE, probe, rec,
            )
            with ServeClient(port=server.port) as client:
                stats = client.stats()
            per_layer = serve_load.traced_metrics(
                traced, serve_load.check_replies(traced, harness), rec,
                {name: inst for name, (inst, _) in instances.items()}, stats, probe,
            )
            per_layer["serve.latency_p90_ms"] = detail["latency_p90_ms"]
            parity_failures = per_layer.pop("parity_failures")
    finally:
        server.stop()
    return finish(ledger, probe, rec, e2e, detail, per_layer, parity_failures)


def finish(ledger, probe, rec, e2e, detail, per_layer, parity_failures) -> Dict[str, Any]:
    """Fold one run into the fields the output needs."""
    from startup import SETUP_SAMPLES

    overlaps = probe.overlaps()
    probe_ms = statistics.median(probe.readings_ms)
    per_layer.update({
        "bench.probe_ms": probe_ms,
        "bench.raw_setup_s": detail["raw_setup_s"],
        "bench.raw_latency_p50_ms": detail["raw_latency_p50_ms"],
        "bench.raw_throughput_rps": detail["raw_throughput_rps"],
    })
    detail.update({
        "setup_samples": SETUP_SAMPLES,
        "probe_ms": probe_ms,
        "probe_readings": len(probe.readings_ms),
        "probe_readings_ms": probe.readings_ms,
        "probe_per_cpu_ms": probe.per_cpu_ms,
        "probe_op_overlaps": overlaps,
        "parity_failures": parity_failures,
        "failures": ledger.failures,
        "problems": ledger.problems,
    })
    return {
        "correct": ledger.invalid == 0 and parity_failures == 0 and overlaps == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "e2e": e2e,
        "per_layer": per_layer,
        "detail": detail,
        "spans": rec,
    }


WORKLOADS: Dict[str, Callable[[argparse.Namespace, Path], Dict[str, Any]]] = {
    "solve-250k": lambda args, workdir: run_batch("solve", args, workdir),
    "distribute-w4": lambda args, workdir: run_batch("distribute", args, workdir),
    "serve-mixed": run_serve,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A terminated run still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    from metrics import END_TO_END, PER_LAYER, result_line

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = WORKLOADS[args.workload](args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    values, units = (out["per_layer"], PER_LAYER) if args.trace else (out["e2e"], END_TO_END)
    line = result_line(out["correct"], out["attempted"], out["failed"], values, units)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "detail": out["detail"],
        "result": line,
    }
    summary = {k: v for k, v in out["detail"].items() if not isinstance(v, list) or k == "problems"}
    out_dir = ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        out["spans"].dump(out_dir / f"{stem}.spans.json")
    print(json.dumps({"detail": summary}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
