#!/usr/bin/env python
"""Run the hot-path throughput benchmark and maintain BENCH_perf.json.

Usage
-----
Full benchmark (three sizes up to ~1e6 edges), updating BENCH_perf.json
in place while preserving the recorded seed baseline::

    PYTHONPATH=src python scripts/run_perf_bench.py

CI smoke tier — quick run, fail (exit 1) on a >2x edges/sec regression
against the committed smoke numbers::

    PYTHONPATH=src python scripts/run_perf_bench.py --smoke --check

Record the current code as the "seed baseline" (done once, before the
hot-path optimization, so the speedup trajectory stays in the file)::

    PYTHONPATH=src python scripts/run_perf_bench.py --record-seed-baseline
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.perfbench import (  # noqa: E402
    check_kk_floor,
    check_regression,
    check_solve_floor,
    load_bench_file,
    records_to_json,
    run_bench,
    run_distributed_scaling,
    run_kk_kernel_bench,
    run_merge_bench,
    run_shipping_bench,
    run_solve_floor,
    run_trace_overhead,
    run_transport_bench,
    speedup_table,
    write_bench_file,
)

BENCH_FILE = REPO_ROOT / "BENCH_perf.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="run only the small smoke tier"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against committed BENCH_perf.json; exit 1 on >FACTOR"
        " regression (implies --no-write)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="allowed edges/sec regression factor for --check (default 2.0)",
    )
    parser.add_argument(
        "--record-seed-baseline",
        action="store_true",
        help="store this run's full-tier numbers as the immutable "
        "pre-optimization baseline",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="do not touch BENCH_perf.json"
    )
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help="measure structured-tracing cost (off vs on) instead of the "
        "throughput ladder; fails if tracing perturbs any cover",
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="measure the sharded executor's backend x W scaling surface "
        "(backends serial/thread/process, W in {1,2,4,8}) instead of the "
        "throughput ladder; updates the 'distributed' section of "
        "BENCH_perf.json unless --no-write",
    )
    parser.add_argument(
        "--kk-kernel",
        action="store_true",
        help="benchmark the vectorized kk kernel against kk-reference on "
        "identical streams (asserts byte-identical outputs); updates the "
        "'kk_kernel' section of BENCH_perf.json unless --no-write",
    )
    parser.add_argument(
        "--shipping",
        action="store_true",
        help="measure process-backend per-task serialized bytes, pickled "
        "edges vs shared-memory spans; updates the 'shipping' section of "
        "BENCH_perf.json unless --no-write",
    )
    parser.add_argument(
        "--transport",
        action="store_true",
        help="measure wire bytes/frames per (transport, coordinator) cell "
        "(asserts cover/comm parity with inproc; socket cells skipped "
        "where binding is forbidden); updates the 'transport' section of "
        "BENCH_perf.json unless --no-write",
    )
    parser.add_argument(
        "--merge",
        action="store_true",
        help="measure the merge critical path, chain vs tournament over "
        "fixed/adaptive tau (asserts tree < chain logical steps at W>=8 "
        "and sync/async cover parity); updates the 'merge' section of "
        "BENCH_perf.json unless --no-write",
    )
    parser.add_argument(
        "--check-kk-floor",
        action="store_true",
        help="run the smoke tier's kk cell and exit 1 if its throughput "
        "falls below the committed scalar seed baseline (CI smoke gate "
        "for the vectorized kernel; implies --no-write)",
    )
    parser.add_argument(
        "--check-solve-floor",
        action="store_true",
        help="time load->validate->stream_of->kk->verify at 250k edges, "
        "columnar against the kept tuple reference pipeline (best of two "
        "runs each); exit 1 unless the columnar solve is >=2x faster with "
        "identical covers (CI gate; implies --no-write)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    def progress(line: str) -> None:
        print(line, flush=True)

    if args.check_kk_floor:
        # Two measured runs, best-of per cell: the first pass pays
        # import/cache warmup that a regression gate should not count.
        warm = run_bench(tier="smoke", seed=args.seed, algorithms=["kk"])
        second = run_bench(
            tier="smoke", seed=args.seed, algorithms=["kk"], progress=progress
        )
        best = {
            (r.config, r.algorithm): r for r in warm
        }
        for record in second:
            key = (record.config, record.algorithm)
            if record.edges_per_sec > best[key].edges_per_sec:
                best[key] = record
        current = list(best.values())
        baseline = load_bench_file(BENCH_FILE).get("seed_baseline", [])
        if not baseline:
            print("no committed seed baseline in BENCH_perf.json; nothing to check")
            return 0
        failures = check_kk_floor(current, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            return 1
        print("ok: kk throughput clears the scalar seed-baseline floor")
        return 0

    if args.check_solve_floor:
        columnar, reference, mismatches = run_solve_floor(
            seed=args.seed, progress=progress
        )
        for record in (columnar, reference):
            stages = "  ".join(
                f"{stage} {ms:7.1f}ms" for stage, ms in record.stage_ms.items()
            )
            print(f"{record.pipeline:<16} {record.seconds:6.3f}s  {stages}")
        failures = check_solve_floor(columnar, reference, mismatches)
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            return 1
        print(
            f"ok: columnar solve x{reference.seconds / columnar.seconds:.1f} "
            "the tuple reference, identical covers"
        )
        return 0

    if args.kk_kernel or args.shipping:
        tier = "smoke" if args.smoke else "full"
        kernel_records = None
        shipping_records = None
        if args.kk_kernel:
            kernel_records = run_kk_kernel_bench(
                tier=tier, seed=args.seed, progress=progress
            )
            best = max(kernel_records, key=lambda r: r.speedup)
            print(
                f"ok: {len(kernel_records)} kk-kernel cells byte-identical; "
                f"best speedup x{best.speedup:.1f} ({best.config})"
            )
        if args.shipping:
            shipping_records = run_shipping_bench(
                tier=tier, seed=args.seed, progress=progress
            )
            best = max(shipping_records, key=lambda r: r.reduction_factor)
            print(
                f"ok: {len(shipping_records)} shipping cells; best task-bytes "
                f"reduction x{best.reduction_factor:,.0f} ({best.config})"
            )
        if not args.no_write:
            write_bench_file(
                BENCH_FILE, kk_kernel=kernel_records, shipping=shipping_records
            )
            print(f"updated kk_kernel/shipping sections of {BENCH_FILE}")
        return 0

    if args.transport:
        tier = "smoke" if args.smoke else "full"
        records = run_transport_bench(
            tier=tier, seed=args.seed, progress=progress
        )
        worst = max(records, key=lambda r: r.overhead_ratio)
        print(
            f"ok: {len(records)} transport cells parity-identical; worst "
            f"bytes/word overhead x{worst.overhead_ratio:.3f} "
            f"({worst.transport}/{worst.coordinator})"
        )
        if not any(r.transport == "socket" for r in records):
            print("note: socket cells skipped (bind forbidden)")
        if not args.no_write:
            write_bench_file(BENCH_FILE, transport=records)
            print(f"updated transport section of {BENCH_FILE}")
        return 0

    if args.merge:
        tier = "smoke" if args.smoke else "full"
        workers_grid = (2, 4, 8) if args.smoke else (2, 4, 8, 16)
        records = run_merge_bench(
            tier=tier,
            seed=args.seed,
            workers_grid=workers_grid,
            progress=progress,
        )
        w_hi = max(r.workers for r in records)
        by_cell = {
            (r.coordinator, r.threshold_mode): r
            for r in records
            if r.workers == w_hi
        }
        chain = by_cell[("chain", "fixed")]
        tree = by_cell[("tree", "adaptive")]
        print(
            f"ok: {len(records)} merge cells verified; at W={w_hi} the "
            f"tree's critical path is {tree.logical_steps} steps vs the "
            f"chain's {chain.logical_steps} "
            f"(x{chain.logical_steps / max(tree.logical_steps, 1):.1f}), "
            f"adaptive-tau cover {tree.cover_size} vs chain "
            f"{chain.cover_size}"
        )
        if not args.no_write:
            write_bench_file(BENCH_FILE, merge=records)
            print(f"updated merge section of {BENCH_FILE}")
        return 0

    if args.distributed:
        tier = "smoke" if args.smoke else "full"
        records = run_distributed_scaling(
            tier=tier, seed=args.seed, progress=progress
        )
        fastest = max(records, key=lambda r: r.edges_per_sec)
        print(
            f"ok: {len(records)} scaling points; fastest "
            f"{fastest.config}/{fastest.backend}/W={fastest.workers} at "
            f"{fastest.edges_per_sec:,.0f} edges/s"
        )
        best_speedups = {}
        for record in records:
            if record.speedup_vs_serial is None:
                continue
            key = record.backend
            if (
                key not in best_speedups
                or record.speedup_vs_serial
                > best_speedups[key].speedup_vs_serial
            ):
                best_speedups[key] = record
        for backend in sorted(best_speedups):
            best = best_speedups[backend]
            print(
                f"  best {backend} speedup: x{best.speedup_vs_serial:.2f} "
                f"vs serial ({best.config}, W={best.workers})"
            )
        if not args.no_write:
            write_bench_file(BENCH_FILE, distributed=records)
            print(f"updated distributed section of {BENCH_FILE}")
        return 0

    if args.trace_overhead:
        tier = "smoke" if args.smoke else "full"
        records = run_trace_overhead(
            tier=tier, seed=args.seed, progress=progress
        )
        worst = max(records, key=lambda r: r.overhead_fraction)
        print(
            f"ok: tracing left all {len(records)} covers bit-identical; "
            f"worst overhead {100 * worst.overhead_fraction:.1f}% "
            f"({worst.config}/{worst.algorithm})"
        )
        return 0

    if args.check:
        current = run_bench(tier="smoke", seed=args.seed, progress=progress)
        committed = load_bench_file(BENCH_FILE).get("smoke", [])
        if not committed:
            print("no committed smoke numbers in BENCH_perf.json; nothing to check")
            return 0
        failures = check_regression(current, committed, factor=args.factor)
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            return 1
        print(f"ok: no >{args.factor}x regression against committed smoke numbers")
        return 0

    smoke = run_bench(tier="smoke", seed=args.seed, progress=progress)
    full = [] if args.smoke else run_bench(tier="full", seed=args.seed, progress=progress)

    if args.record_seed_baseline:
        if not full:
            full = run_bench(tier="full", seed=args.seed, progress=progress)
        write_bench_file(
            BENCH_FILE, smoke, full, seed_baseline=records_to_json(full)
        )
        print(f"recorded seed baseline in {BENCH_FILE}")
        return 0

    if not args.no_write and not args.smoke:
        payload = write_bench_file(BENCH_FILE, smoke, full)
        rows = speedup_table(payload.get("seed_baseline", []), full)
        if rows:
            print("\nspeedup vs seed baseline:")
            for config, algorithm, before, after, speedup in rows:
                print(
                    f"  {config:>7} {algorithm:<13} "
                    f"{before:>12,.0f} -> {after:>12,.0f} edges/s  "
                    f"({speedup:.1f}x)"
                )
        print(f"\nwrote {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
