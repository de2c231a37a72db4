"""Tests for SetCoverInstance: shape, feasibility, covers, certificates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    InfeasibleInstanceError,
    InvalidCoverError,
    InvalidInstanceError,
)
from repro.streaming.instance import SetCoverInstance, instance_from_edges
from repro.types import Edge


class TestConstruction:
    def test_basic_shape(self, tiny_instance):
        assert tiny_instance.n == 4
        assert tiny_instance.m == 3
        assert tiny_instance.num_edges == 6

    def test_rejects_zero_universe(self):
        with pytest.raises(InvalidInstanceError):
            SetCoverInstance(0, [{0}])

    def test_rejects_no_sets(self):
        with pytest.raises(InvalidInstanceError):
            SetCoverInstance(3, [])

    def test_rejects_out_of_range_element(self):
        with pytest.raises(InvalidInstanceError):
            SetCoverInstance(3, [{0, 3}])

    def test_rejects_negative_element(self):
        with pytest.raises(InvalidInstanceError):
            SetCoverInstance(3, [{-1}])

    def test_empty_sets_allowed(self):
        instance = SetCoverInstance(2, [{0, 1}, set()])
        assert instance.set_size(1) == 0

    def test_duplicate_members_collapse(self):
        instance = SetCoverInstance(3, [[0, 0, 1]])
        assert instance.set_size(0) == 2

    def test_name_recorded(self):
        assert SetCoverInstance(1, [{0}], name="x").name == "x"


class TestAccessors:
    def test_set_members(self, tiny_instance):
        assert tiny_instance.set_members(1) == frozenset({1, 2})

    def test_set_members_out_of_range(self, tiny_instance):
        with pytest.raises(InvalidInstanceError):
            tiny_instance.set_members(3)

    def test_contains(self, tiny_instance):
        assert tiny_instance.contains(0, 1)
        assert not tiny_instance.contains(0, 2)

    def test_sets_tuple(self, tiny_instance):
        assert len(tiny_instance.sets()) == 3

    def test_element_degrees(self, tiny_instance):
        # element 0: set 0 only; 1: sets 0,1; 2: sets 1,2; 3: set 2.
        assert list(tiny_instance.element_degrees()) == [1, 2, 2, 1]

    def test_element_degree_single(self, tiny_instance):
        assert tiny_instance.element_degree(1) == 2

    def test_element_degree_out_of_range(self, tiny_instance):
        with pytest.raises(InvalidInstanceError):
            tiny_instance.element_degree(4)

    def test_covering_sets(self, tiny_instance):
        assert tiny_instance.covering_sets(2) == frozenset({1, 2})

    def test_covering_sets_out_of_range(self, tiny_instance):
        with pytest.raises(InvalidInstanceError):
            tiny_instance.covering_sets(9)


class TestEdges:
    def test_edges_enumeration(self, tiny_instance):
        edges = list(tiny_instance.edges())
        assert len(edges) == 6
        assert edges[0] == Edge(0, 0)
        assert all(isinstance(e, Edge) for e in edges)

    def test_edges_sorted_within_set(self, tiny_instance):
        edges = list(tiny_instance.edges())
        by_set = {}
        for e in edges:
            by_set.setdefault(e.set_id, []).append(e.element)
        for elements in by_set.values():
            assert elements == sorted(elements)

    def test_edges_match_membership(self, chain_instance):
        for set_id, element in chain_instance.edges():
            assert chain_instance.contains(set_id, element)


class TestFeasibility:
    def test_feasible_instance_validates(self, tiny_instance):
        tiny_instance.validate()

    def test_infeasible_raises(self):
        instance = SetCoverInstance(3, [{0, 1}])
        with pytest.raises(InfeasibleInstanceError):
            instance.validate()

    def test_is_feasible_flags(self):
        assert SetCoverInstance(2, [{0, 1}]).is_feasible()
        assert not SetCoverInstance(2, [{0}]).is_feasible()


class TestCovers:
    def test_is_cover_true(self, tiny_instance):
        assert tiny_instance.is_cover([0, 2])

    def test_is_cover_false(self, tiny_instance):
        assert not tiny_instance.is_cover([0, 1])

    def test_coverage_of(self, tiny_instance):
        assert tiny_instance.coverage_of([1]) == {1, 2}

    def test_uncovered_by(self, tiny_instance):
        assert tiny_instance.uncovered_by([0]) == {2, 3}

    def test_uncovered_by_full_cover_empty(self, tiny_instance):
        assert tiny_instance.uncovered_by([0, 1, 2]) == set()


class TestCertificates:
    def test_valid_certificate(self, tiny_instance):
        tiny_instance.verify_certificate({0: 0, 1: 0, 2: 2, 3: 2})

    def test_missing_entry_rejected(self, tiny_instance):
        with pytest.raises(InvalidCoverError):
            tiny_instance.verify_certificate({0: 0, 1: 0, 2: 2})

    def test_wrong_witness_rejected(self, tiny_instance):
        with pytest.raises(InvalidCoverError):
            tiny_instance.verify_certificate({0: 2, 1: 0, 2: 2, 3: 2})


class TestDerivedInstances:
    def test_restrict_to_sets(self, tiny_instance):
        sub = tiny_instance.restrict_to_sets([0, 2])
        assert sub.m == 2
        assert sub.set_members(1) == frozenset({2, 3})

    def test_with_extra_sets(self, tiny_instance):
        ext = tiny_instance.with_extra_sets([{0, 3}])
        assert ext.m == 4
        assert ext.set_members(3) == frozenset({0, 3})

    def test_original_unmodified(self, tiny_instance):
        tiny_instance.with_extra_sets([{0}])
        assert tiny_instance.m == 3


class TestEquality:
    def test_equal_instances(self):
        a = SetCoverInstance(3, [{0}, {1, 2}])
        b = SetCoverInstance(3, [{0}, {1, 2}])
        assert a == b
        assert hash(a) == hash(b)

    def test_different_sets_unequal(self):
        a = SetCoverInstance(3, [{0}, {1, 2}])
        b = SetCoverInstance(3, [{0}, {1}])
        assert a != b

    def test_different_universe_unequal(self):
        a = SetCoverInstance(3, [{0}])
        b = SetCoverInstance(4, [{0}])
        assert a != b


class TestInstanceFromEdges:
    def test_roundtrip(self, tiny_instance):
        rebuilt = instance_from_edges(
            tiny_instance.n, tiny_instance.m, tiny_instance.edges()
        )
        assert rebuilt == tiny_instance

    def test_missing_sets_become_empty(self):
        instance = instance_from_edges(2, 3, [(0, 0), (0, 1)])
        assert instance.set_size(1) == 0
        assert instance.set_size(2) == 0

    def test_rejects_set_id_beyond_m(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_edges(2, 1, [(1, 0)])

    def test_duplicate_edges_collapse(self):
        instance = instance_from_edges(2, 1, [(0, 0), (0, 0), (0, 1)])
        assert instance.num_edges == 2


class TestCSR:
    def test_layout(self):
        instance = SetCoverInstance(6, [[5, 1, 1, 3], [], [0], {2, 4}])
        assert instance.indptr.tolist() == [0, 3, 3, 4, 6]
        assert instance.indices.tolist() == [1, 3, 5, 0, 2, 4]
        assert instance.num_edges == 6

    def test_arrays_are_read_only(self, tiny_instance):
        with pytest.raises(ValueError):
            tiny_instance.indices[0] = 3
        with pytest.raises(ValueError):
            tiny_instance.indptr[0] = 1

    def test_columns_are_the_canonical_enumeration(self, chain_instance):
        set_ids, elements = chain_instance.columns()
        assert list(zip(set_ids.tolist(), elements.tolist())) == [
            tuple(edge) for edge in chain_instance.edges()
        ]

    def test_set_members_cached(self, tiny_instance):
        assert tiny_instance.set_members(1) is tiny_instance.set_members(1)

    def test_negative_set_id_indexes_from_the_end(self, tiny_instance):
        assert tiny_instance.set_members(-1) == frozenset({2, 3})

    def test_from_csr_round_trip(self, chain_instance):
        copy = SetCoverInstance.from_csr(
            chain_instance.n, chain_instance.indptr, chain_instance.indices
        )
        assert copy == chain_instance
        assert hash(copy) == hash(chain_instance)

    def test_generator_sets_accepted(self):
        instance = SetCoverInstance(4, (iter(range(k)) for k in (1, 4, 2)))
        assert instance.sets() == (frozenset({0}), frozenset(range(4)), frozenset({0, 1}))

    def test_out_of_range_names_set_and_element(self):
        with pytest.raises(InvalidInstanceError, match="set 1 contains element 7"):
            SetCoverInstance(5, [{0}, {7}])

    def test_huge_element_rejected(self):
        with pytest.raises(InvalidInstanceError, match="outside universe"):
            SetCoverInstance(5, [{0}, {2**70}])


class TestVectorizedAgainstSets:
    """The CSR-backed queries against the same queries on plain sets."""

    @staticmethod
    def _instance_and_sets(n, sets):
        return SetCoverInstance(n, sets), [frozenset(s) for s in sets]

    @given(
        n=st.integers(1, 12),
        raw=st.lists(st.lists(st.integers(0, 11), max_size=8), min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_queries(self, n, raw):
        sets = [[u % n for u in members] for members in raw]
        instance, frozen = self._instance_and_sets(n, sets)
        assert instance.sets() == tuple(frozen)
        assert instance.num_edges == sum(len(s) for s in frozen)
        assert list(instance.element_degrees()) == [
            sum(u in s for s in frozen) for u in range(n)
        ]
        for u in range(n):
            assert instance.covering_sets(u) == frozenset(
                i for i, s in enumerate(frozen) if u in s
            )
        assert list(instance.edges()) == [
            Edge(i, u) for i, s in enumerate(frozen) for u in sorted(s)
        ]
        missing = [u for u in range(n) if not any(u in s for s in frozen)]
        if missing:
            with pytest.raises(InfeasibleInstanceError, match=f"{len(missing)} element"):
                instance.validate()
        else:
            instance.validate()
