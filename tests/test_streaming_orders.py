"""Tests for arrival-order policies: permutation property, model shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidStreamError
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance
from repro.generators.zipf import zipf_instance
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import (
    ORDER_REGISTRY,
    CanonicalOrder,
    ExplicitOrder,
    LargeSetsLastOrder,
    LocallyShuffledOrder,
    RandomOrder,
    RoundRobinInterleaveOrder,
    SetGroupedOrder,
    check_permutation,
    make_order,
)
from repro.streaming.reference import reference_apply, reference_edges
from repro.streaming.stream import ordered_edges
from repro.types import Edge


@pytest.fixture
def edges(chain_instance):
    return list(chain_instance.edges())


ALL_SEEDED_ORDERS = [
    RandomOrder,
    SetGroupedOrder,
    RoundRobinInterleaveOrder,
    LargeSetsLastOrder,
]


class TestPermutationProperty:
    @pytest.mark.parametrize("order_cls", ALL_SEEDED_ORDERS)
    def test_is_permutation(self, order_cls, edges):
        reordered = order_cls(seed=1).apply(edges)
        check_permutation(edges, reordered)

    def test_canonical_is_identity(self, edges):
        assert CanonicalOrder().apply(edges) == edges

    @pytest.mark.parametrize("order_cls", ALL_SEEDED_ORDERS)
    def test_deterministic_under_seed(self, order_cls, edges):
        assert order_cls(seed=5).apply(edges) == order_cls(seed=5).apply(edges)

    def test_random_order_seeds_differ(self, edges):
        # Not guaranteed in general, but these seeds do differ.
        assert RandomOrder(seed=1).apply(edges) != RandomOrder(seed=2).apply(edges)


class TestSetGroupedOrder:
    def test_sets_contiguous(self, edges):
        reordered = SetGroupedOrder(seed=3).apply(edges)
        seen_closed = set()
        current = None
        for edge in reordered:
            if edge.set_id != current:
                assert edge.set_id not in seen_closed
                if current is not None:
                    seen_closed.add(current)
                current = edge.set_id
        # every set appears
        assert {e.set_id for e in reordered} == {e.set_id for e in edges}


class TestRoundRobin:
    def test_prefix_spreads_sets(self):
        # 3 sets with 3 elements each: the first 3 edges must name 3
        # distinct sets.
        instance = SetCoverInstance(
            9, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}]
        )
        reordered = RoundRobinInterleaveOrder(seed=0).apply(
            list(instance.edges())
        )
        assert len({e.set_id for e in reordered[:3]}) == 3

    def test_unequal_sizes_handled(self):
        instance = SetCoverInstance(4, [{0}, {1, 2, 3}])
        reordered = RoundRobinInterleaveOrder(seed=0).apply(
            list(instance.edges())
        )
        check_permutation(list(instance.edges()), reordered)


class TestLargeSetsLast:
    def test_small_sets_first(self):
        instance = SetCoverInstance(5, [{0, 1, 2, 3}, {4}])
        reordered = LargeSetsLastOrder(seed=0).apply(list(instance.edges()))
        assert reordered[0].set_id == 1
        assert reordered[-1].set_id == 0


class TestLocallyShuffledOrder:
    def test_is_permutation(self, edges):
        from repro.streaming.orders import LocallyShuffledOrder

        for randomness in (0.0, 0.3, 1.0):
            reordered = LocallyShuffledOrder(randomness, seed=1).apply(edges)
            check_permutation(edges, reordered)

    def test_zero_randomness_keeps_round_robin_spread(self, edges):
        from repro.streaming.orders import LocallyShuffledOrder

        # Zero randomness leaves the adversarial round-robin base
        # untouched: the first k edges come from k distinct sets.
        reordered = LocallyShuffledOrder(0.0, seed=2).apply(edges)
        prefix_sets = {e.set_id for e in reordered[:3]}
        assert len(prefix_sets) == 3

    def test_rejects_bad_randomness(self):
        from repro.errors import InvalidStreamError
        from repro.streaming.orders import LocallyShuffledOrder

        with pytest.raises(InvalidStreamError):
            LocallyShuffledOrder(-0.1)
        with pytest.raises(InvalidStreamError):
            LocallyShuffledOrder(1.5)

    def test_deterministic(self, edges):
        from repro.streaming.orders import LocallyShuffledOrder

        a = LocallyShuffledOrder(0.5, seed=4).apply(edges)
        b = LocallyShuffledOrder(0.5, seed=4).apply(edges)
        assert a == b

    def test_full_randomness_differs_from_base(self):
        from repro.streaming.instance import SetCoverInstance
        from repro.streaming.orders import LocallyShuffledOrder

        instance = SetCoverInstance(
            30, [set(range(i, i + 10)) for i in range(0, 21, 2)]
        )
        edges = list(instance.edges())
        zero = LocallyShuffledOrder(0.0, seed=5).apply(edges)
        full = LocallyShuffledOrder(1.0, seed=5).apply(edges)
        assert zero != full


class TestExplicitOrder:
    def test_applies_positions(self, edges):
        reversed_positions = list(range(len(edges)))[::-1]
        reordered = ExplicitOrder(reversed_positions).apply(edges)
        assert reordered == edges[::-1]

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidStreamError):
            ExplicitOrder([0, 0, 1])

    def test_rejects_length_mismatch(self, edges):
        order = ExplicitOrder(list(range(3)))
        with pytest.raises(InvalidStreamError):
            order.apply(edges)


class TestRegistry:
    def test_all_registered_constructible(self):
        for name in ORDER_REGISTRY:
            order = make_order(name, seed=1)
            assert order.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidStreamError):
            make_order("bogus")


class TestCheckPermutation:
    def test_accepts_shuffle(self, edges):
        check_permutation(edges, list(reversed(edges)))

    def test_rejects_length_change(self, edges):
        with pytest.raises(InvalidStreamError):
            check_permutation(edges, edges[:-1])

    def test_rejects_substitution(self, edges):
        tampered = list(edges)
        tampered[0] = Edge(99, 99)
        with pytest.raises(InvalidStreamError):
            check_permutation(edges, tampered)

    def test_rejects_duplication(self, edges):
        tampered = list(edges)
        tampered[1] = tampered[0]
        with pytest.raises(InvalidStreamError):
            check_permutation(edges, tampered)


# -- permutation path against the tuple reference -------------------------

GRID_INSTANCES = {
    "tiny": lambda: SetCoverInstance(4, [{0, 1}, {1, 2}, {2, 3}]),
    "empty-sets": lambda: SetCoverInstance(5, [set(), {0, 4}, set(), {1, 2, 3}, {2}]),
    "fixed": lambda: fixed_size_instance(60, 150, 7, seed=3),
    "planted": lambda: planted_partition_instance(70, 90, opt_size=6, seed=1).instance,
    "zipf": lambda: zipf_instance(50, 80, seed=2),
}


def _order_factories(num_edges):
    factories = {
        name: (lambda seed, name=name: make_order(name, seed=seed))
        for name in ORDER_REGISTRY
    }
    for randomness in (0.0, 0.05, 0.5, 1.0):
        factories[f"locally-shuffled-{randomness}"] = (
            lambda seed, r=randomness: LocallyShuffledOrder(r, seed=seed)
        )
    positions = list(range(num_edges))
    factories["explicit"] = lambda seed: ExplicitOrder(
        positions[seed % 3 :] + positions[: seed % 3]
    )
    return factories


class TestPermutationMatchesTupleReference:
    @pytest.mark.parametrize("instance_name", sorted(GRID_INSTANCES))
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_every_order(self, instance_name, seed):
        instance = GRID_INSTANCES[instance_name]()
        canonical = reference_edges(instance)
        assert list(instance.edges()) == canonical
        for label, factory in _order_factories(len(canonical)).items():
            expected = reference_apply(factory(seed), canonical)
            frozen = ordered_edges(instance, factory(seed))
            assert list(frozen.edges) == expected, label
            set_ids, elements = frozen.columns()
            assert set_ids.tolist() == [e.set_id for e in expected], label
            assert elements.tolist() == [e.element for e in expected], label
            assert factory(seed).apply(canonical) == expected, label

    @pytest.mark.parametrize("order_cls", ALL_SEEDED_ORDERS)
    def test_arbitrary_input_order(self, order_cls):
        # apply() groups by first appearance, as the tuple orders did,
        # whatever the input's order.
        instance = fixed_size_instance(30, 40, 5, seed=8)
        edges = RandomOrder(seed=3).apply(list(instance.edges()))
        assert order_cls(seed=4).apply(edges) == reference_apply(order_cls(seed=4), edges)

    def test_rng_state_carries_over_like_the_tuple_path(self):
        # A reused order continues from the same RNG state on both paths.
        instance = fixed_size_instance(20, 30, 4, seed=1)
        canonical = reference_edges(instance)
        fast, ref = RandomOrder(seed=9), RandomOrder(seed=9)
        for _ in range(3):
            assert list(ordered_edges(instance, fast)) == reference_apply(ref, canonical)

    def test_empty_input(self):
        for name in ORDER_REGISTRY:
            empty = np.empty(0, dtype=np.int64)
            assert make_order(name, seed=0).permutation(empty, empty).size == 0
            assert make_order(name, seed=0).apply([]) == []
