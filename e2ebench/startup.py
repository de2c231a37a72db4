"""Set-up time: fresh interpreters importing the entry module.

Each sample is a new interpreter that times ``import repro.cli`` and
then takes two probes of its own, so the sample is corrected by the
host speed that interpreter saw.  One untimed interpreter runs first,
so bytecode caches are warm as they are for a user's repeated runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

from probe import corrected

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

_CHILD = """
import time
start = time.perf_counter()
import repro.cli
raw_s = time.perf_counter() - start
import json
from probe import HostProbe
probe = HostProbe()
print(json.dumps({"raw_s": raw_s, "probes_ms": [probe.measure(), probe.measure()]}))
"""


def child_env(src: Path, bench_dir: Path) -> Dict[str, str]:
    """Environment for a child interpreter that sees only this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(bench_dir)])
    return env


def time_cli_import(src: Path, bench_dir: Path) -> Tuple[float, float]:
    """(median corrected s, median raw s) of ``SETUP_SAMPLES`` fresh interpreters."""
    env = child_env(src, bench_dir)
    runs = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    timed = runs[1:]
    corrected_s = [corrected(r["raw_s"], r["probes_ms"]) for r in timed]
    raw_s = [r["raw_s"] for r in timed]
    return statistics.median(corrected_s), statistics.median(raw_s)
