"""Steadiness report: run one workload over several seeds and compare spreads.

Usage, from the root of a checkout::

    python3 e2ebench/spread.py --workload solve-250k --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
spread (Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``,
next to the metric's bound from ``BENCHMARK.json``.  For each corrected
timing it also prints the spread of its raw twin, which shows what the
host-speed correction removes.  The runs' results are saved as JSON in
``.bench_out/`` so two sets can be compared with ``--compare``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from stats import iqr_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Corrected metric -> the detail field holding its raw twin.
RAW_TWINS = {
    "setup_s": "raw_setup_s",
    "latency_p50_ms": "raw_latency_p50_ms",
    "throughput_rps": "raw_throughput_rps",
}


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def spreads(runs: List[Dict], bounds: Dict[str, float]) -> List[Dict]:
    rows = []
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        row = {"metric": name, "median": statistics.median(values),
               "spread": iqr_spread(values), "bound": bound}
        if name in RAW_TWINS:
            row["raw_spread"] = iqr_spread([r["detail"][RAW_TWINS[name]] for r in runs])
        rows.append(row)
    return rows


def render(workload: str, rows: List[Dict]) -> str:
    out = [f"{workload}: metric, median, spread, raw spread, bound"]
    for row in rows:
        raw = f"{row['raw_spread']:.4f}" if "raw_spread" in row else "-"
        flag = "" if row["spread"] < row["bound"] / 3 else "  (spread >= bound/3)"
        out.append(f"  {row['metric']:16s} {row['median']:12.4f} {row['spread']:.4f} {raw:>8s} {row['bound']:.2f}{flag}")
    return "\n".join(out)


def compare(first: Dict, second: Dict, bounds: Dict[str, float], better: Dict[str, str]) -> str:
    """Second set's median against the first's, as a share of it."""
    out = [f"{first['workload']}: metric, first median, second median, change (worse is +), bound"]
    for name, bound in bounds.items():
        a = statistics.median(r["result"]["metrics"][name]["value"] for r in first["runs"])
        b = statistics.median(r["result"]["metrics"][name]["value"] for r in second["runs"])
        worse = (b - a) / a if better[name] == "lower" else (a - b) / a
        flag = "" if worse <= bound else "  (worse than bound)"
        out.append(f"  {name:16s} {a:12.4f} {b:12.4f} {worse:+.4f} {bound:.2f}{flag}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--tag", default="set1")
    parser.add_argument("--compare", nargs=2, metavar="REPORT")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        print(compare(first, second, bounds, better))
        return 0
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: " + json.dumps({k: round(v["value"], 4) for k, v in runs[-1]["result"]["metrics"].items()}), flush=True)
    rows = spreads(runs, bounds)
    report = {"workload": args.workload, "seconds": seconds, "runs": runs, "rows": rows}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spread-{args.workload}-{args.tag}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(render(args.workload, rows))
    print(f"saved {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
