"""One-pass edge streams over a set-cover instance.

An :class:`EdgeStream` couples an instance with an arrival order and
enforces the single-pass discipline: once consumed, a stream refuses to
be iterated again (algorithms that accidentally take two passes fail
loudly in tests instead of silently cheating).

The ordered edge sequence is frozen once into a :class:`FrozenEdges`
buffer — a pair of numpy ``(N,)`` columns plus a lazily-built tuple of
:class:`~repro.types.Edge` for scalar consumers — and *shared* across
every view of the ordering: creating a fresh one-pass view is O(1), and
batch consumers (see :meth:`EdgeStream.iter_chunks` and
:class:`StreamReader`) slice the shared buffer instead of stepping a
generator one edge at a time.  :func:`stream_of` builds the columns
without any edge object: the instance's CSR columns gathered through
the arrival order's permutation.

Use :func:`stream_of` for the common case, or :class:`ReplayableStream`
in experiment harnesses where several algorithms must see the *same*
ordered stream.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidStreamError, StreamExhaustedError
from repro.streaming.instance import SetCoverInstance, shared_int_lists
from repro.streaming.orders import ArrivalOrder, CanonicalOrder
from repro.types import Edge

EdgesLike = Union["FrozenEdges", Sequence[Edge]]


class FrozenEdges:
    """An immutable edge ordering shared by every view of a stream.

    Holds the edges as a pair of numpy ``int64`` columns
    ``(set_ids, elements)`` for vectorized batch processing, and builds,
    on first request, the tuple of :class:`~repro.types.Edge` that
    scalar consumers iterate.  Both representations are built at most
    once and shared — wrapping an existing :class:`FrozenEdges` or
    passing the same instance to many streams never copies.
    """

    __slots__ = ("_set_ids", "_elements", "_edges")

    def __init__(self, edges: EdgesLike) -> None:
        if isinstance(edges, FrozenEdges):
            self._set_ids = edges._set_ids
            self._elements = edges._elements
            self._edges = edges._edges
            return
        self._edges: Optional[Tuple[Edge, ...]] = (
            edges if isinstance(edges, tuple) else tuple(edges)
        )
        flat = np.fromiter(
            chain.from_iterable(self._edges),
            dtype=np.int64,
            count=2 * len(self._edges),
        )
        self._set_ids = flat[0::2].copy()
        self._elements = flat[1::2].copy()

    @classmethod
    def from_columns(cls, set_ids: np.ndarray, elements: np.ndarray) -> "FrozenEdges":
        """Adopt ``(set_ids, elements)`` columns; the tuple view stays lazy."""
        frozen = cls.__new__(cls)
        frozen._set_ids = set_ids
        frozen._elements = elements
        frozen._edges = None
        return frozen

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The full ordered edge tuple (built once, then shared)."""
        if self._edges is None:
            self._edges = _edge_tuple(self._set_ids, self._elements)
        return self._edges

    def __len__(self) -> int:
        return len(self._set_ids)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __getitem__(self, index):
        return self.edges[index]

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Numpy ``(set_ids, elements)`` columns of the ordering.

        Shared by every stream view; slices of the returned arrays are
        numpy views, so chunked consumers never copy edge data.
        """
        return self._set_ids, self._elements


def _edge_tuple(set_ids: np.ndarray, elements: np.ndarray) -> Tuple[Edge, ...]:
    """The ``Edge`` tuples of two columns.

    The cyclic collector is paused while the (acyclic) tuples are
    allocated: otherwise each full collection that the allocations
    trigger re-scans every edge built so far, which is most of the cost.
    """
    set_list, element_list = shared_int_lists(set_ids, elements)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return tuple(map(tuple.__new__, repeat(Edge), zip(set_list, element_list)))
    finally:
        if enabled:
            gc.enable()


def ordered_edges(instance: SetCoverInstance, order: ArrivalOrder) -> FrozenEdges:
    """``instance``'s edges under ``order``: CSR columns, permuted.

    The canonical columns come straight from the instance's CSR arrays
    and are gathered through :meth:`ArrivalOrder.permutation`; no edge
    object is built.
    """
    set_ids, elements = instance.columns()
    positions = order.permutation(set_ids, elements)
    return FrozenEdges.from_columns(set_ids[positions], elements[positions])


@dataclass(frozen=True)
class StreamCheckpoint:
    """A verifiable position in a one-pass stream.

    Captures both the reader position and the shape of the underlying
    buffer at checkpoint time, so restoring onto a *different* buffer —
    truncated, extended, or one whose declared length disagrees with the
    edges it actually holds — is detected and rejected instead of
    silently misaligning the cursor.
    """

    position: int
    buffer_length: int
    declared_length: int

    def validate_against(self, stream: "EdgeStream") -> None:
        """Raise :class:`InvalidStreamError` unless ``stream`` matches."""
        actual = stream.actual_length
        if self.buffer_length != actual:
            raise InvalidStreamError(
                f"checkpoint taken on a buffer of {self.buffer_length} edges "
                f"cannot be restored onto one holding {actual} (truncated or "
                "extended stream)"
            )
        if stream.length != actual:
            raise InvalidStreamError(
                f"stream declares N={stream.length} but its buffer holds "
                f"{actual} edges; refusing to restore onto a length-lying "
                "stream"
            )
        if self.declared_length != stream.length:
            raise InvalidStreamError(
                f"checkpoint recorded declared length {self.declared_length} "
                f"but stream declares {stream.length}"
            )
        if not 0 <= self.position <= actual:
            raise InvalidStreamError(
                f"checkpoint position {self.position} outside the buffer's "
                f"range(0, {actual + 1})"
            )


class StreamReader:
    """Sequential batched cursor over a one-pass :class:`EdgeStream`.

    Obtained from :meth:`EdgeStream.reader`; the stream is marked
    consumed at that point, so the reader is the only way to advance it.
    ``take(k)`` returns the next ``k`` edges as a tuple slice of the
    shared buffer (no per-edge generator step), and
    :meth:`take_columns` returns the matching numpy views for
    vectorized processing.
    """

    __slots__ = ("_stream", "_frozen")

    def __init__(self, stream: "EdgeStream") -> None:
        self._stream = stream
        self._frozen = stream._frozen

    @property
    def position(self) -> int:
        """Number of edges consumed so far."""
        return self._stream._position

    @property
    def remaining(self) -> int:
        """Number of edges not yet consumed."""
        return len(self._frozen) - self._stream._position

    def checkpoint(self) -> StreamCheckpoint:
        """Snapshot the current position for a later verified restore."""
        stream = self._stream
        return StreamCheckpoint(
            position=stream._position,
            buffer_length=len(self._frozen),
            declared_length=stream.length,
        )

    def take(self, k: int) -> Tuple[Edge, ...]:
        """Consume and return up to ``k`` edges.

        The returned chunk may be shorter than ``k`` at end of stream
        *or* when the stream has a pending checkpoint (takes never cross
        one); callers consuming a fixed quota must loop until the quota
        is filled or the chunk comes back empty.
        """
        if k < 0:
            raise ValueError(f"cannot take {k} edges")
        stream = self._stream
        start, stop = stream._take_bounds(k)
        stream._position = stop
        return self._frozen.edges[start:stop]

    def take_rest(self) -> Tuple[Edge, ...]:
        """Consume and return every remaining edge (up to a checkpoint)."""
        return self.take(len(self._frozen) - self._stream._position)

    def take_columns(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Consume up to ``k`` edges, returned as numpy column views.

        Subject to the same checkpoint clamping as :meth:`take`.
        """
        if k < 0:
            raise ValueError(f"cannot take {k} edges")
        set_ids, elements = self._frozen.columns()
        stream = self._stream
        start, stop = stream._take_bounds(k)
        stream._position = stop
        return set_ids[start:stop], elements[start:stop]

    def take_rest_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Consume every remaining edge as numpy column views."""
        return self.take_columns(len(self._frozen) - self._stream._position)


class EdgeStream:
    """A single-pass stream of ``(set_id, element)`` edges.

    Parameters
    ----------
    instance:
        The underlying set-cover instance.
    edges:
        The ordered edge sequence to present; callers usually obtain it
        by applying an :class:`~repro.streaming.orders.ArrivalOrder` to
        ``instance.edges()``.  A :class:`FrozenEdges` (or a plain tuple)
        is adopted without copying, so replayable harnesses share one
        buffer across every view.
    order_name:
        Label recorded in experiment output.
    declared_length:
        Length ``N`` the stream *claims* to have; defaults to the true
        buffer length.  A mismatching value models hostile or buggy
        producers (fault injection, malformed files); consumers that
        trust :attr:`length` for epoch sizing will be misled, which is
        exactly what robustness tests probe.  :attr:`actual_length`
        always reports the truth.
    """

    def __init__(
        self,
        instance: SetCoverInstance,
        edges: EdgesLike,
        order_name: str = "canonical",
        declared_length: Optional[int] = None,
    ) -> None:
        self.instance = instance
        self._frozen = edges if isinstance(edges, FrozenEdges) else FrozenEdges(edges)
        self.order_name = order_name
        if declared_length is not None and declared_length < 0:
            raise InvalidStreamError(
                f"declared_length must be >= 0, got {declared_length}"
            )
        self._declared_length = declared_length
        self._consumed = False
        self._position = 0
        # Sorted positions at which _on_checkpoint() fires before the
        # edge at that position is consumed.  Subclasses (e.g. the
        # lower-bound boundary prober) populate this; batched takes are
        # clamped so they never cross a pending checkpoint, keeping the
        # hook's view of consumer state exact.
        self._checkpoints: List[int] = []

    @property
    def length(self) -> int:
        """The stream length N as *declared* (usually the true count)."""
        if self._declared_length is not None:
            return self._declared_length
        return len(self._frozen)

    @property
    def actual_length(self) -> int:
        """The number of edges the buffer genuinely holds."""
        return len(self._frozen)

    @property
    def position(self) -> int:
        """Number of edges already yielded."""
        return self._position

    @property
    def consumed(self) -> bool:
        """Whether iteration has started (one-pass guard)."""
        return self._consumed

    def _start_pass(self) -> None:
        if self._consumed:
            raise StreamExhaustedError(
                "edge stream already consumed; one-pass algorithms may not "
                "re-read the stream (use ReplayableStream in harnesses)"
            )
        self._consumed = True

    def __iter__(self) -> Iterator[Edge]:
        self._start_pass()
        return self._generate()

    def _generate(self) -> Iterator[Edge]:
        if self._checkpoints:
            yield from self._generate_with_checkpoints()
            return
        for edge in self._frozen.edges:
            self._position += 1
            yield edge

    def _generate_with_checkpoints(self) -> Iterator[Edge]:
        checkpoints = self._checkpoints
        for edge in self._frozen.edges:
            while checkpoints and checkpoints[0] == self._position:
                self._on_checkpoint()
                checkpoints.pop(0)
            self._position += 1
            yield edge
        self.flush_checkpoints()

    # -- checkpoint hooks ------------------------------------------------

    def _on_checkpoint(self) -> None:
        """Called when consumption reaches a position in ``_checkpoints``."""

    def flush_checkpoints(self) -> None:
        """Fire checkpoints at or before the consumed position.

        Harnesses call this after the consumer finishes so a checkpoint
        placed exactly at the stream end (e.g. an empty final party in
        the lower-bound reduction) still fires — but only once the
        consumer genuinely reached it.
        """
        checkpoints = self._checkpoints
        while checkpoints and checkpoints[0] <= self._position:
            self._on_checkpoint()
            checkpoints.pop(0)

    def _take_bounds(self, k: int) -> Tuple[int, int]:
        """Resolve a batched take: fire due checkpoints, clamp the stop.

        Returns the half-open ``[start, stop)`` slice the take may
        consume; ``stop`` never crosses a pending checkpoint, so the
        next take fires it only after the consumer has processed every
        earlier edge.
        """
        start = self._position
        stop = min(start + k, len(self._frozen))
        checkpoints = self._checkpoints
        if checkpoints:
            while checkpoints and checkpoints[0] == start:
                self._on_checkpoint()
                checkpoints.pop(0)
            if checkpoints and checkpoints[0] < stop:
                stop = checkpoints[0]
        return start, stop

    def iter_chunks(self, chunk_size: int) -> Iterator[Tuple[Edge, ...]]:
        """One-pass iteration in chunks of up to ``chunk_size`` edges.

        Each chunk is a tuple slice of the shared frozen buffer — batch
        consumers (occurrence counting, witness collection) avoid the
        per-edge generator step entirely.  Subject to the same one-pass
        discipline as :meth:`__iter__`.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._start_pass()
        return self._generate_chunks(chunk_size)

    def _generate_chunks(self, chunk_size: int) -> Iterator[Tuple[Edge, ...]]:
        edges = self._frozen.edges
        total = len(edges)
        while self._position < total:
            start, stop = self._take_bounds(chunk_size)
            self._position = stop
            yield edges[start:stop]
        self.flush_checkpoints()

    def reader(
        self, resume_from: Optional[StreamCheckpoint] = None
    ) -> StreamReader:
        """A batched one-pass cursor over this stream (marks it consumed).

        With ``resume_from``, the cursor restarts at a previously taken
        :class:`StreamCheckpoint` — after verifying the checkpoint was
        taken on *this* buffer shape.  Restoring onto a truncated,
        extended, or length-lying buffer raises
        :class:`~repro.errors.InvalidStreamError` rather than silently
        misaligning the cursor.
        """
        if resume_from is not None:
            resume_from.validate_against(self)
        self._start_pass()
        if resume_from is not None:
            self._position = resume_from.position
        return StreamReader(self)

    def peek_all(self) -> Sequence[Edge]:
        """The full ordered edge list, for verification only.

        Experiment harnesses and tests may inspect the stream; streaming
        algorithms must not (they receive the iterator, not the stream
        object's internals).
        """
        return self._frozen.edges

    def __repr__(self) -> str:
        return (
            f"EdgeStream(N={self.length}, order={self.order_name!r}, "
            f"instance={self.instance!r})"
        )


class ReplayableStream:
    """Factory producing fresh one-pass :class:`EdgeStream` views.

    Freezes one ordered edge sequence so that multiple algorithms can be
    compared on the *identical* stream, each receiving its own one-pass
    view.  The frozen buffer (numpy columns and tuple view alike) is
    shared by every view: :meth:`fresh` is O(1) and never copies edges.
    """

    def __init__(
        self,
        instance: SetCoverInstance,
        order: Optional[ArrivalOrder] = None,
    ) -> None:
        self.instance = instance
        order = order if order is not None else CanonicalOrder()
        self.order_name = order.name
        self._frozen = ordered_edges(instance, order)

    @property
    def length(self) -> int:
        """The stream length N."""
        return len(self._frozen)

    def fresh(self) -> EdgeStream:
        """A new, unconsumed one-pass view of the frozen ordering."""
        return EdgeStream(self.instance, self._frozen, order_name=self.order_name)

    def edges(self) -> Sequence[Edge]:
        """The frozen ordered edge sequence (verification only)."""
        return self._frozen.edges

    def __repr__(self) -> str:
        return (
            f"ReplayableStream(N={self.length}, order={self.order_name!r}, "
            f"instance={self.instance!r})"
        )


def stream_of(
    instance: SetCoverInstance,
    order: Optional[ArrivalOrder] = None,
) -> EdgeStream:
    """Build a one-pass stream of ``instance`` under ``order``.

    With ``order=None`` the canonical (set-grouped, deterministic)
    enumeration is streamed.
    """
    order = order if order is not None else CanonicalOrder()
    return EdgeStream(
        instance, ordered_edges(instance, order), order_name=order.name
    )


def concat_streams(first: EdgeStream, second: EdgeStream) -> EdgeStream:
    """Concatenate two unconsumed streams over the same universe.

    Used by the lower-bound reduction, where the last party appends the
    complement set's edges after the shared prefix.  Both inputs must be
    unconsumed; the result is a fresh stream over the combined instance
    of the *first* stream (callers are responsible for id consistency).
    """
    if first.consumed or second.consumed:
        raise StreamExhaustedError("cannot concatenate consumed streams")
    first_sets, first_elements = first._frozen.columns()
    second_sets, second_elements = second._frozen.columns()
    return EdgeStream(
        first.instance,
        FrozenEdges.from_columns(
            np.concatenate((first_sets, second_sets)),
            np.concatenate((first_elements, second_elements)),
        ),
        order_name=f"{first.order_name}+{second.order_name}",
    )
