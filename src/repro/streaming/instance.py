"""Set-cover instances: the static ground truth behind an edge stream.

A :class:`SetCoverInstance` holds a universe ``range(n)`` and a family
of ``m`` sets over it.  All streams, algorithms, verifiers, and
experiment harnesses in the library are defined against this type.

The paper (Section 2) represents an instance as a bipartite incidence
graph ``G = (S, U, E)`` with an edge ``(S_i, u)`` iff ``u ∈ S_i``; the
:meth:`SetCoverInstance.edges` iterator enumerates exactly that edge
set, and :meth:`SetCoverInstance.columns` gives it as the two numpy
columns of the instance's compressed-sparse-row storage.  Feasibility
(every element in at least one set) is the paper's standing
assumption; :meth:`validate` enforces it on demand, and generators
produce feasible instances by construction.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import InfeasibleInstanceError, InvalidInstanceError
from repro.types import Edge, ElementId, SetId


def csr_from_pairs(
    n: int, m: int, set_ids: np.ndarray, elements: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of in-range ``(set, element)`` pairs.

    Pairs are sorted set-major, elements ascending within each set, and
    duplicates are dropped.  The sort runs on the single key
    ``set * n + element`` with an adjacent-difference mask instead of
    ``np.unique``, which is an order of magnitude slower on int64 keys.
    Callers range-check the pairs first.
    """
    if set_ids.size and n * m >= 2**63:
        # The fused key would overflow int64; sort the two columns.
        order = np.lexsort((elements, set_ids))
        set_ids, elements = set_ids[order], elements[order]
        keep = np.ones(set_ids.size, dtype=bool)
        keep[1:] = (set_ids[1:] != set_ids[:-1]) | (elements[1:] != elements[:-1])
        set_ids, elements = set_ids[keep], elements[keep]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(set_ids, minlength=m), out=indptr[1:])
        return indptr, elements
    keys = set_ids * n + elements
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    if not keep.all():
        keys = keys[keep]
    indptr = np.searchsorted(keys, np.arange(m + 1, dtype=np.int64) * n)
    # The keys buffer becomes the indices: element = key mod n.
    np.remainder(keys, n, out=keys)
    return indptr, keys


def shared_int_lists(*columns: np.ndarray) -> List[List[int]]:
    """``column.tolist()`` for each column, sharing one int object per id.

    Set and element ids are small next to the number of edges, so
    reading them from one pool of Python ints saves allocating an int
    per entry: the ``Edge`` tuples of a 250k-edge stream, or the member
    sets of a 250k-edge instance, then hold a few thousand ints instead
    of half a million.  Ids far beyond the column length skip the pool.
    """
    size = len(columns[0])
    if not size:
        return [[] for _ in columns]
    low = min(int(column.min()) for column in columns)
    high = max(int(column.max()) for column in columns)
    if low < 0 or high > 4 * size + 4096:
        return [column.tolist() for column in columns]
    pool = np.arange(high + 1).astype(object)
    return [pool[column].tolist() for column in columns]


class SetCoverInstance:
    """An immutable set-cover instance over universe ``range(n)``.

    The family is stored in compressed sparse rows: set ``s`` owns
    ``indices[indptr[s]:indptr[s + 1]]``, sorted ascending without
    duplicates.  Frozenset views of single sets are built on first use
    and cached, so checking a cover builds only its witness sets.

    Parameters
    ----------
    n:
        Universe size; elements are ``0 .. n-1``.
    sets:
        Iterable of element collections, one per set, indexed ``0 .. m-1``
        in iteration order.
    name:
        Optional human-readable label used in experiment output.
    """

    def __init__(
        self,
        n: int,
        sets: Iterable[Iterable[ElementId]],
        name: str = "",
    ) -> None:
        if n <= 0:
            raise InvalidInstanceError(f"universe size must be positive, got {n}")
        groups = [
            members if isinstance(members, (set, frozenset, list, tuple)) else tuple(members)
            for members in sets
        ]
        if not groups:
            raise InvalidInstanceError("instance must contain at least one set")
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        total = int(sizes.sum())
        try:
            elements = np.fromiter(
                chain.from_iterable(groups), dtype=np.int64, count=total
            )
        except OverflowError:
            elements = None
        if elements is None or total and (elements.min() < 0 or elements.max() >= n):
            # Name the first offending set and element.
            for set_id, members in enumerate(groups):
                for u in members:
                    if not 0 <= int(u) < n:
                        raise InvalidInstanceError(
                            f"set {set_id} contains element {u} outside universe "
                            f"range(0, {n})"
                        )
            raise InvalidInstanceError("element ids must be int64 integers")
        set_ids = np.repeat(np.arange(len(groups), dtype=np.int64), sizes)
        indptr, indices = csr_from_pairs(n, len(groups), set_ids, elements)
        self._init_csr(n, indptr, indices, name)

    @classmethod
    def from_csr(
        cls, n: int, indptr: np.ndarray, indices: np.ndarray, name: str = ""
    ) -> "SetCoverInstance":
        """Adopt CSR arrays as built by :func:`csr_from_pairs` (not copied)."""
        if n <= 0:
            raise InvalidInstanceError(f"universe size must be positive, got {n}")
        if len(indptr) < 2:
            raise InvalidInstanceError("instance must contain at least one set")
        instance = cls.__new__(cls)
        instance._init_csr(n, indptr, indices, name)
        return instance

    def _init_csr(
        self, n: int, indptr: np.ndarray, indices: np.ndarray, name: str
    ) -> None:
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._n = n
        self._indptr = indptr
        self._indices = indices
        self._members: List[Optional[FrozenSet[ElementId]]] = [None] * (len(indptr) - 1)
        self._element_degrees: Optional[Tuple[int, ...]] = None
        self.name = name

    # -- basic shape -----------------------------------------------------

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def m(self) -> int:
        """Number of sets."""
        return len(self._members)

    @property
    def num_edges(self) -> int:
        """Total number of (set, element) incidences — the stream length N."""
        return len(self._indices)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers, ``int64[m + 1]`` (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR members, ``int64[N]``, ascending within each set (read-only)."""
        return self._indices

    def set_members(self, set_id: SetId) -> FrozenSet[ElementId]:
        """The elements of set ``set_id`` (built on first use, then cached)."""
        try:
            members = self._members[set_id]
        except IndexError:
            raise InvalidInstanceError(
                f"set id {set_id} out of range(0, {self.m})"
            ) from None
        if members is None:
            set_id %= self.m
            start, stop = self._indptr[set_id : set_id + 2].tolist()
            members = frozenset(self._indices[start:stop].tolist())
            self._members[set_id] = members
        return members

    def set_size(self, set_id: SetId) -> int:
        """``len`` of set ``set_id``."""
        return len(self.set_members(set_id))

    def sets(self) -> Sequence[FrozenSet[ElementId]]:
        """All sets, indexed by set id."""
        if None in self._members:
            (elements,) = shared_int_lists(self._indices)
            bounds = self._indptr.tolist()
            for set_id, members in enumerate(self._members):
                if members is None:
                    self._members[set_id] = frozenset(
                        elements[bounds[set_id] : bounds[set_id + 1]]
                    )
        return tuple(self._members)

    def contains(self, set_id: SetId, element: ElementId) -> bool:
        """Whether element ``element`` is in set ``set_id``."""
        return element in self.set_members(set_id)

    # -- derived structure -------------------------------------------------

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical ``(set_ids, elements)`` int64 columns of all edges.

        Grouped by set id, elements ascending: the order of
        :meth:`edges`.  ``elements`` is the read-only CSR array itself.
        """
        set_ids = np.repeat(
            np.arange(self.m, dtype=np.int64), np.diff(self._indptr)
        )
        return set_ids, self._indices

    def edges(self) -> Iterator[Edge]:
        """Iterate all incidence edges, grouped by set, elements ascending.

        This is the canonical (deterministic) edge enumeration; arrival
        orders are applied on top of it by :mod:`repro.streaming.orders`.
        """
        return map(Edge, *shared_int_lists(*self.columns()))

    def element_degrees(self) -> Sequence[int]:
        """Degree (number of containing sets) of each element, by id."""
        if self._element_degrees is None:
            self._element_degrees = tuple(
                np.bincount(self._indices, minlength=self._n).tolist()
            )
        return self._element_degrees

    def element_degree(self, element: ElementId) -> int:
        """Degree of a single element."""
        if not 0 <= element < self._n:
            raise InvalidInstanceError(
                f"element {element} out of range(0, {self._n})"
            )
        return self.element_degrees()[element]

    def covering_sets(self, element: ElementId) -> FrozenSet[SetId]:
        """Ids of the sets containing ``element`` (computed on demand)."""
        if not 0 <= element < self._n:
            raise InvalidInstanceError(
                f"element {element} out of range(0, {self._n})"
            )
        positions = np.flatnonzero(self._indices == element)
        set_ids = np.searchsorted(self._indptr, positions, side="right") - 1
        return frozenset(set_ids.tolist())

    # -- feasibility and cover checking -----------------------------------

    def validate(self) -> None:
        """Raise :class:`InfeasibleInstanceError` if some element is uncovered.

        The paper assumes feasibility throughout (Section 2); call this
        after constructing instances from untrusted input.
        """
        covered = np.zeros(self._n, dtype=bool)
        covered[self._indices] = True
        missing = np.flatnonzero(~covered).tolist()
        if missing:
            preview = ", ".join(str(u) for u in missing[:5])
            raise InfeasibleInstanceError(
                f"{len(missing)} element(s) belong to no set (e.g. {preview})"
            )

    def is_feasible(self) -> bool:
        """``True`` iff every element is contained in at least one set."""
        try:
            self.validate()
        except InfeasibleInstanceError:
            return False
        return True

    def coverage_of(self, set_ids: Iterable[SetId]) -> Set[ElementId]:
        """Union of the given sets' members."""
        covered: Set[ElementId] = set()
        for set_id in set_ids:
            covered.update(self.set_members(set_id))
        return covered

    def is_cover(self, set_ids: Iterable[SetId]) -> bool:
        """``True`` iff the given sets jointly cover the whole universe."""
        return len(self.coverage_of(set_ids)) == self._n

    def uncovered_by(self, set_ids: Iterable[SetId]) -> Set[ElementId]:
        """Elements *not* covered by the given sets."""
        covered = self.coverage_of(set_ids)
        return {u for u in range(self._n) if u not in covered}

    def verify_certificate(self, certificate: Mapping[ElementId, SetId]) -> None:
        """Check a cover certificate ``element -> covering set``.

        Raises :class:`InvalidInstanceError` unless every universe
        element is assigned a set that actually contains it.
        """
        from repro.errors import InvalidCoverError

        for u in range(self._n):
            if u not in certificate:
                raise InvalidCoverError(f"element {u} has no certificate entry")
            s = certificate[u]
            if not self.contains(s, u):
                raise InvalidCoverError(
                    f"certificate maps element {u} to set {s}, which does not "
                    "contain it"
                )

    # -- restriction / derived instances -----------------------------------

    def restrict_to_sets(self, set_ids: Sequence[SetId], name: str = "") -> "SetCoverInstance":
        """New instance keeping only the given sets (same universe)."""
        return SetCoverInstance(
            self._n,
            (self.set_members(s) for s in set_ids),
            name=name or f"{self.name}|restricted",
        )

    def with_extra_sets(
        self, extra: Iterable[Iterable[ElementId]], name: str = ""
    ) -> "SetCoverInstance":
        """New instance with ``extra`` sets appended after the existing ones."""
        combined: List[Iterable[ElementId]] = list(self.sets())
        combined.extend(extra)
        return SetCoverInstance(self._n, combined, name=name or f"{self.name}+extra")

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetCoverInstance):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._indptr.tobytes(), self._indices.tobytes()))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"SetCoverInstance(n={self._n}, m={self.m}, "
            f"edges={self.num_edges}{label})"
        )


def instance_from_edges(
    n: int, m: int, edges: Iterable[Tuple[SetId, ElementId]], name: str = ""
) -> SetCoverInstance:
    """Build an instance of shape ``(n, m)`` from an edge list.

    Sets that receive no edges become empty sets; they are legal (an
    algorithm simply never sees them in the stream) but the instance
    must still be feasible overall if you intend to run cover checks.
    """
    members: Dict[SetId, Set[ElementId]] = {s: set() for s in range(m)}
    for set_id, element in edges:
        if not 0 <= set_id < m:
            raise InvalidInstanceError(f"edge references set {set_id} >= m={m}")
        members[set_id].add(element)
    return SetCoverInstance(n, (members[s] for s in range(m)), name=name)
