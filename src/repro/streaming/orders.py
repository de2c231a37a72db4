"""Arrival-order policies for edge streams.

The paper contrasts three stream orders:

* **adversarial** — worst-case order chosen by an adversary.  We provide
  several concrete adversarial heuristics (interleaving sets so that no
  prefix reveals a whole set, back-loading large sets, ...) plus support
  for fully custom permutations, since the true worst case depends on
  the algorithm under attack.
* **random** — a uniformly random permutation of the edges (the model of
  Theorem 3).
* **set-grouped** — all edges of a set arrive contiguously; this recovers
  the classical *set-arrival* model as a special case of edge arrival
  and is used for the Table-1 row-1 baseline.

Every policy computes an index permutation of an edge sequence given
as numpy columns (the canonical enumeration of
:meth:`SetCoverInstance.columns`), with an explicit seed where
randomness is involved; :meth:`ArrivalOrder.apply` maps a list of
``Edge`` tuples through that permutation.  The policies draw from
their RNG exactly as the original tuple implementations did (kept in
:mod:`repro.streaming.reference`), so a seed names the same order on
both paths.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.errors import InvalidStreamError
from repro.types import Edge, SeedLike, make_rng

OrderFn = Callable[[Sequence[Edge]], List[Edge]]


def _set_groups(set_ids: np.ndarray) -> Dict[int, List[int]]:
    """Positions of each set's edges, keyed by set in first-appearance order.

    Positions ascend within a group (they keep their input order): the
    grouping the tuple orders built edge by edge with ``dict.setdefault``.
    """
    if not set_ids.size:
        return {}
    by_set = np.argsort(set_ids, kind="stable")
    grouped = set_ids[by_set]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    bounds = np.append(starts, by_set.size).tolist()
    positions = by_set.tolist()
    ids = grouped[starts].tolist()
    groups: Dict[int, List[int]] = {}
    for g in np.argsort(by_set[starts], kind="stable").tolist():
        groups[ids[g]] = positions[bounds[g] : bounds[g + 1]]
    return groups


def _as_positions(positions: Sequence[int]) -> np.ndarray:
    return np.fromiter(positions, dtype=np.int64, count=len(positions))


class ArrivalOrder:
    """Base class for arrival-order policies.

    Subclasses implement :meth:`permutation`.  Policies must return a
    permutation of their input — :func:`check_permutation` is available
    for defensive subclasses and is exercised by the test suite.
    """

    name = "base"

    def permutation(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        """``int64[N]`` positions: stream edge ``i`` is input edge ``perm[i]``."""
        raise NotImplementedError

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        """Reorder a sequence of edge tuples by :meth:`permutation`."""
        edges = list(edges)
        set_ids = np.fromiter((edge[0] for edge in edges), np.int64, len(edges))
        elements = np.fromiter((edge[1] for edge in edges), np.int64, len(edges))
        return [edges[i] for i in self.permutation(set_ids, elements).tolist()]

    def __call__(self, edges: Sequence[Edge]) -> List[Edge]:
        return self.apply(edges)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CanonicalOrder(ArrivalOrder):
    """Identity order: edges as enumerated (grouped by set id)."""

    name = "canonical"

    def permutation(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        return np.arange(len(set_ids), dtype=np.int64)


class RandomOrder(ArrivalOrder):
    """Uniformly random permutation — the model of Theorem 3."""

    name = "random"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def permutation(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        # random.shuffle's draws depend only on the list's length, so
        # shuffling positions reproduces the shuffle of the edges.
        positions = list(range(len(set_ids)))
        self._rng.shuffle(positions)
        return _as_positions(positions)


class SetGroupedOrder(ArrivalOrder):
    """All edges of each set contiguous: the classical set-arrival model.

    The order of the groups themselves is randomised (set-arrival
    streams present sets in arbitrary order), and within each group the
    elements are randomised too.
    """

    name = "set-grouped"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def permutation(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        groups = _set_groups(set_ids)
        order = list(groups)
        self._rng.shuffle(order)
        out: List[int] = []
        for set_id in order:
            group = groups[set_id]
            self._rng.shuffle(group)
            out.extend(group)
        return _as_positions(out)


class RoundRobinInterleaveOrder(ArrivalOrder):
    """Adversarial heuristic: deal edges from sets one at a time.

    Each set contributes its next edge in turn, so the stream's prefix
    spreads every set as thinly as possible — the central difficulty of
    edge arrival ("sets may be spread out over the input stream",
    Section 1.2).  Greedy-style decisions based on prefixes are maximally
    misled.
    """

    name = "round-robin"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def permutation(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        groups = _set_groups(set_ids)
        queues = []
        for set_id in sorted(groups):
            group = groups[set_id]
            self._rng.shuffle(group)
            queues.append(group)
        self._rng.shuffle(queues)
        out: List[int] = []
        cursor = 0
        while queues:
            cursor %= len(queues)
            queue = queues[cursor]
            out.append(queue.pop())
            if queue:
                cursor += 1
            else:
                queues.pop(cursor)
        return _as_positions(out)


class LargeSetsLastOrder(ArrivalOrder):
    """Adversarial heuristic: reveal small sets first, big sets last.

    Algorithms that commit early are forced to buy coverage from many
    small sets before the few large sets (which an optimal cover would
    use) ever appear.
    """

    name = "large-sets-last"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def permutation(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        groups = _set_groups(set_ids)
        out: List[int] = []
        for set_id in sorted(groups, key=lambda s: (len(groups[s]), s)):
            group = groups[set_id]
            self._rng.shuffle(group)
            out.extend(group)
        return _as_positions(out)


class LocallyShuffledOrder(ArrivalOrder):
    """Semi-random order: an adversarial base, shuffled within windows.

    Interpolates between the two models the paper separates: starting
    from a round-robin (adversarially spread) base order, the stream is
    shuffled only within consecutive windows covering a fraction
    ``randomness`` of the stream.  ``randomness = 0`` is the pure
    adversarial base; ``randomness = 1`` is a single window — close to,
    though not exactly, a uniform permutation (long-range structure of
    the base survives only across window boundaries).

    Used by the ``order-robustness`` experiment to probe how much of
    Theorem 3's random-order assumption Algorithm 1 actually consumes —
    an empirical handle on the paper's Section-6 open problems.
    """

    name = "locally-shuffled"

    def __init__(self, randomness: float, seed: SeedLike = None) -> None:
        if not 0.0 <= randomness <= 1.0:
            raise InvalidStreamError(
                f"randomness must be in [0, 1], got {randomness}"
            )
        self.randomness = randomness
        self._rng = make_rng(seed)

    def permutation(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        base = RoundRobinInterleaveOrder(
            seed=self._rng.getrandbits(63)
        ).permutation(set_ids, elements)
        if self.randomness <= 0.0 or len(base) <= 1:
            return base
        # Ceiling, not floor: flooring collapses small positive
        # ``randomness`` on short streams to window 1 — a no-op shuffle
        # that silently reports the adversarial base as "perturbed".
        window = max(1, math.ceil(self.randomness * len(base)))
        positions = base.tolist()
        out: List[int] = []
        for start in range(0, len(positions), window):
            chunk = positions[start : start + window]
            self._rng.shuffle(chunk)
            out.extend(chunk)
        return _as_positions(out)


class ExplicitOrder(ArrivalOrder):
    """A fully custom permutation supplied by the caller.

    ``positions[i]`` is the index, in the canonical enumeration, of the
    edge arriving at stream position ``i``.
    """

    name = "explicit"

    def __init__(self, positions: Sequence[int]) -> None:
        self._positions = list(positions)
        if sorted(self._positions) != list(range(len(self._positions))):
            raise InvalidStreamError(
                "explicit order must be a permutation of range(len(edges))"
            )

    def permutation(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        if len(set_ids) != len(self._positions):
            raise InvalidStreamError(
                f"explicit order of length {len(self._positions)} applied to "
                f"{len(set_ids)} edges"
            )
        return _as_positions(self._positions)


#: Registry of order constructors by public name, for the CLI/experiments.
ORDER_REGISTRY: Dict[str, Callable[..., ArrivalOrder]] = {
    CanonicalOrder.name: CanonicalOrder,
    RandomOrder.name: RandomOrder,
    SetGroupedOrder.name: SetGroupedOrder,
    RoundRobinInterleaveOrder.name: RoundRobinInterleaveOrder,
    LargeSetsLastOrder.name: LargeSetsLastOrder,
}


def make_order(name: str, seed: SeedLike = None) -> ArrivalOrder:
    """Construct an arrival order from its registry ``name``."""
    try:
        ctor = ORDER_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(ORDER_REGISTRY))
        raise InvalidStreamError(
            f"unknown arrival order {name!r}; known orders: {known}"
        ) from None
    if ctor is CanonicalOrder:
        return ctor()
    return ctor(seed=seed)


def check_permutation(original: Sequence[Edge], reordered: Sequence[Edge]) -> None:
    """Raise unless ``reordered`` is a permutation of ``original``."""
    if len(original) != len(reordered):
        raise InvalidStreamError(
            f"reordered stream has {len(reordered)} edges, expected "
            f"{len(original)}"
        )
    counts: Dict[Edge, int] = {}
    for edge in original:
        counts[edge] = counts.get(edge, 0) + 1
    for edge in reordered:
        remaining = counts.get(edge, 0)
        if remaining == 0:
            raise InvalidStreamError(f"edge {edge} not in (or over-used from) original")
        counts[edge] = remaining - 1
