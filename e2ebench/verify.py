"""Harness-side output checks against the harness's own instance copy.

Every op the benchmark attempts ends in exactly one outcome, recorded in
an :class:`OpLedger`.  An op that fails (refused, errored, or returned a
cover that does not check out) stays in the denominator of ``ok_frac``
and its latency stays in the sample as infinity, so it counts as missing
any latency limit instead of silently leaving the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class HarnessInstance:
    """The benchmark's copy of a generated instance: n and the sets."""

    n: int
    sets: Tuple[frozenset, ...]

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "HarnessInstance":
        return cls(n=n, sets=tuple(frozenset(int(u) for u in s) for s in sets))

    @property
    def m(self) -> int:
        return len(self.sets)


def check_cover(
    instance: HarnessInstance,
    cover: Sequence[int],
    certificate: Optional[Sequence[Tuple[int, int]]] = None,
    partial: bool = False,
) -> List[str]:
    """Problems with a returned cover; empty means it checks out.

    Every set id must name a set of the instance and, unless ``partial``
    (an explicitly degraded reply), the cover must cover every element.
    Every certificate pair ``(element, set)`` must be a real membership,
    and for a full cover the certificate must name every element once.
    """
    problems: List[str] = []
    covered = set()
    for set_id in cover:
        if not 0 <= set_id < instance.m:
            problems.append(f"set id {set_id} is not a set of the instance")
            continue
        covered |= instance.sets[set_id]
    if not partial and len(covered) != instance.n:
        missing = instance.n - len(covered)
        problems.append(f"{missing} element(s) left uncovered")
    if certificate is not None:
        witnessed = set()
        for element, set_id in certificate:
            if not 0 <= set_id < instance.m or element not in instance.sets[set_id]:
                problems.append(
                    f"certificate pair ({element}, {set_id}) is not a membership"
                )
            witnessed.add(element)
        if not partial and len(witnessed) != instance.n:
            problems.append("certificate does not witness every element")
    return problems


def parse_cli_cover(output: str) -> List[int]:
    """The set ids of the ``cover:`` line the CLI prints; [] if absent."""
    for line in output.splitlines():
        if line.startswith("cover:"):
            return [int(token) for token in line[len("cover:"):].split()]
    raise ValueError("no 'cover:' line in the CLI output")


@dataclass
class OpLedger:
    """Attempted ops, their outcomes, and the latency sample.

    ``latencies`` holds one entry per attempted op: the corrected
    latency of an ok op, ``inf`` for a failed one.
    """

    attempted: int = 0
    ok: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def record_ok(self, latency: float, raw_latency: float) -> None:
        self.attempted += 1
        self.ok += 1
        self.latencies.append(latency)
        self.raw_latencies.append(raw_latency)

    def record_failure(self, reason: str, detail: str = "") -> None:
        self.attempted += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
        self.latencies.append(math.inf)
        self.raw_latencies.append(math.inf)
        if detail and len(self.problems) < 20:
            self.problems.append(f"{reason}: {detail}")

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def invalid(self) -> int:
        """Ops whose returned output did not check out."""
        return self.failures.get("invalid", 0)

    @property
    def ok_frac(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0
