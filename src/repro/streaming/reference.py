"""The tuple pipeline, kept as the scalar reference for the columnar one.

:func:`~repro.streaming.stream.stream_of` builds a stream from the
instance's CSR columns and an index permutation.  Before that, a stream
was prepared one Python object at a time: the text file parsed line by
line, every edge enumerated as an :class:`~repro.types.Edge` from the
sorted member sets, the edge list reordered, and the numpy columns
rebuilt from the tuples.  This module keeps that pipeline, as
``kk-reference`` keeps the scalar KK loop, so that tests can pin the
fast path to it byte for byte and the solve-floor benchmark can time
the two side by side.

Each reference order draws from the order object's own RNG exactly as
its :meth:`~repro.streaming.orders.ArrivalOrder.permutation` does, so a
pair of orders built with one seed yields one edge sequence on both
paths.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Union

from repro.errors import InvalidStreamError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.io import _read_reference
from repro.streaming.orders import (
    ArrivalOrder,
    CanonicalOrder,
    ExplicitOrder,
    LargeSetsLastOrder,
    LocallyShuffledOrder,
    RandomOrder,
    RoundRobinInterleaveOrder,
    SetGroupedOrder,
)
from repro.streaming.stream import EdgeStream
from repro.types import Edge


def load_instance_reference(source: Union[str, Path, TextIO]) -> SetCoverInstance:
    """:func:`~repro.streaming.io.load_instance` through the line parser."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read_reference(handle)
    return _read_reference(source)


def reference_edges(instance: SetCoverInstance) -> List[Edge]:
    """The canonical enumeration, built edge by edge from the member sets."""
    return [
        Edge(set_id, element)
        for set_id, members in enumerate(instance.sets())
        for element in sorted(members)
    ]


def _groups(edges: Sequence[Edge]) -> Dict[int, List[Edge]]:
    groups: Dict[int, List[Edge]] = {}
    for edge in edges:
        groups.setdefault(edge[0], []).append(edge)
    return groups


def _random(order: RandomOrder, edges: List[Edge]) -> List[Edge]:
    order._rng.shuffle(edges)
    return edges


def _set_grouped(order: SetGroupedOrder, edges: List[Edge]) -> List[Edge]:
    groups = _groups(edges)
    set_ids = list(groups)
    order._rng.shuffle(set_ids)
    out: List[Edge] = []
    for set_id in set_ids:
        group = groups[set_id]
        order._rng.shuffle(group)
        out.extend(group)
    return out


def _round_robin(order: RoundRobinInterleaveOrder, edges: List[Edge]) -> List[Edge]:
    groups = _groups(edges)
    queues = []
    for set_id in sorted(groups):
        group = groups[set_id]
        order._rng.shuffle(group)
        queues.append(group)
    order._rng.shuffle(queues)
    out: List[Edge] = []
    cursor = 0
    while queues:
        cursor %= len(queues)
        queue = queues[cursor]
        out.append(queue.pop())
        if queue:
            cursor += 1
        else:
            queues.pop(cursor)
    return out


def _large_sets_last(order: LargeSetsLastOrder, edges: List[Edge]) -> List[Edge]:
    groups = _groups(edges)
    out: List[Edge] = []
    for set_id in sorted(groups, key=lambda s: (len(groups[s]), s)):
        group = groups[set_id]
        order._rng.shuffle(group)
        out.extend(group)
    return out


def _locally_shuffled(order: LocallyShuffledOrder, edges: List[Edge]) -> List[Edge]:
    base_order = RoundRobinInterleaveOrder(seed=order._rng.getrandbits(63))
    base = _round_robin(base_order, edges)
    if order.randomness <= 0.0 or len(base) <= 1:
        return base
    window = max(1, math.ceil(order.randomness * len(base)))
    out: List[Edge] = []
    for start in range(0, len(base), window):
        chunk = base[start : start + window]
        order._rng.shuffle(chunk)
        out.extend(chunk)
    return out


def _explicit(order: ExplicitOrder, edges: List[Edge]) -> List[Edge]:
    if len(edges) != len(order._positions):
        raise InvalidStreamError(
            f"explicit order of length {len(order._positions)} applied to "
            f"{len(edges)} edges"
        )
    return [edges[i] for i in order._positions]


_REFERENCE: Dict[type, Callable[..., List[Edge]]] = {
    CanonicalOrder: lambda order, edges: edges,
    RandomOrder: _random,
    SetGroupedOrder: _set_grouped,
    RoundRobinInterleaveOrder: _round_robin,
    LargeSetsLastOrder: _large_sets_last,
    LocallyShuffledOrder: _locally_shuffled,
    ExplicitOrder: _explicit,
}


def reference_apply(order: ArrivalOrder, edges: Sequence[Edge]) -> List[Edge]:
    """Reorder ``edges`` with the tuple implementation of ``order``'s policy."""
    return _REFERENCE[type(order)](order, list(edges))


def reference_stream_of(
    instance: SetCoverInstance, order: Optional[ArrivalOrder] = None
) -> EdgeStream:
    """:func:`~repro.streaming.stream.stream_of` through the tuple pipeline."""
    order = order if order is not None else CanonicalOrder()
    edges = reference_apply(order, reference_edges(instance))
    return EdgeStream(instance, tuple(edges), order_name=order.name)
