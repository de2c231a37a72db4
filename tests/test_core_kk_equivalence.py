"""Byte-identity of the vectorized KK kernel against its scalar oracle.

``KKAlgorithm`` (registry name ``"kk"``) was rewritten as a chunked
numpy kernel; the original per-edge loop is kept verbatim as
``KKReferenceAlgorithm`` (``"kk-reference"``).  The contract this module
pins is *byte-identity*, not approximate agreement: for every
(instance, arrival order, seed) the two must produce identical covers,
certificates, diagnostics, space reports and trace JSONL — the kernel
draws its inclusion coins one promotion at a time in stream order from
the same seeded RNG precisely so this holds.

The grids deliberately cross the kernel's internal boundaries: streams
longer than one ``_CHUNK``, inclusion-dense instances that keep the
post-inclusion rescan window (``_RESCAN_WINDOW``) small, and sparse
ones where the window regrows to full chunks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_algorithm, registered_algorithms
from repro.core.kk import (
    _CHUNK,
    KKAlgorithm,
    KKReferenceAlgorithm,
    _occurrence_ranks,
)
from repro.errors import SpaceBudgetExceededError
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance
from repro.obs.tracer import RecordingTracer
from repro.streaming.orders import RandomOrder, RoundRobinInterleaveOrder
from repro.streaming.space import SpaceBudget
from repro.streaming.stream import ReplayableStream


def _run_pair(instance, order, seed, traced=False):
    """Run both implementations on identical stream views.

    The reference instance's ``name`` is shadowed to ``"kk"`` so the
    result's ``algorithm`` field and the trace attributes — which embed
    the name — compare byte-for-byte rather than differing on the label
    alone.
    """
    stream = ReplayableStream(instance, order)
    outputs = []
    for cls in (KKAlgorithm, KKReferenceAlgorithm):
        algorithm = cls(seed=seed)
        if cls is KKReferenceAlgorithm:
            algorithm.name = "kk"
        tracer = RecordingTracer() if traced else None
        if tracer is not None:
            algorithm.set_tracer(tracer)
        result = algorithm.run(stream.fresh())
        if tracer is not None:
            tracer.finish()
        outputs.append((result, tracer))
    return outputs


def _assert_identical(fast, ref):
    assert fast.cover == ref.cover
    assert fast.certificate == ref.certificate
    assert fast.diagnostics == ref.diagnostics
    assert fast.space == ref.space
    assert fast.algorithm == ref.algorithm
    assert fast == ref


class TestRegistry:
    def test_reference_is_registered(self):
        assert "kk" in registered_algorithms()
        assert "kk-reference" in registered_algorithms()

    def test_make_algorithm_builds_reference(self):
        instance = fixed_size_instance(30, 60, set_size=5, seed=0)
        algorithm = make_algorithm("kk-reference", instance, seed=0)
        assert isinstance(algorithm, KKReferenceAlgorithm)
        assert algorithm.name == "kk-reference"

    def test_reference_shares_the_contract(self):
        # Same constructor surface: the reference is a drop-in.
        assert issubclass(KKReferenceAlgorithm, KKAlgorithm)


class TestDeterministicGrid:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 13])
    @pytest.mark.parametrize(
        "order_factory", [RandomOrder, RoundRobinInterleaveOrder]
    )
    def test_random_instances(self, seed, order_factory):
        instance = fixed_size_instance(120, 400, set_size=10, seed=seed)
        (fast, _), (ref, _) = _run_pair(
            instance, order_factory(seed=seed + 1), seed
        )
        _assert_identical(fast, ref)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_planted_instances(self, seed):
        planted = planted_partition_instance(80, 300, opt_size=8, seed=seed)
        (fast, _), (ref, _) = _run_pair(
            planted.instance, RandomOrder(seed=seed), seed
        )
        _assert_identical(fast, ref)

    def test_tiny_instance(self, tiny_instance):
        (fast, _), (ref, _) = _run_pair(tiny_instance, RandomOrder(seed=0), 4)
        _assert_identical(fast, ref)

    def test_multi_chunk_stream(self):
        # > one _CHUNK of edges so the chunk boundary (and the window
        # regrowth across it) is genuinely exercised.
        instance = fixed_size_instance(500, 2000, set_size=20, seed=5)
        stream = ReplayableStream(instance, RandomOrder(seed=5))
        assert stream.length > _CHUNK
        (fast, _), (ref, _) = _run_pair(instance, RandomOrder(seed=5), 5)
        _assert_identical(fast, ref)

    def test_inclusion_dense_instance(self):
        # Small universe, many sets: promotions (and inclusions) fire
        # constantly, so the scan restarts on nearly every window — the
        # adversarial regime for the restart discipline.
        instance = fixed_size_instance(40, 600, set_size=6, seed=2)
        (fast, _), (ref, _) = _run_pair(instance, RandomOrder(seed=2), 2)
        _assert_identical(fast, ref)
        assert fast.diagnostics["inclusion_events"] > 0


class TestTraces:
    @pytest.mark.parametrize("seed", [0, 6])
    def test_trace_jsonl_identical(self, seed):
        instance = fixed_size_instance(100, 350, set_size=9, seed=seed)
        (fast, fast_tracer), (ref, ref_tracer) = _run_pair(
            instance, RandomOrder(seed=seed), seed, traced=True
        )
        _assert_identical(fast, ref)
        assert fast_tracer.to_jsonl() == ref_tracer.to_jsonl()
        assert len(fast_tracer.events) > 0


class TestSpaceBudget:
    def test_both_exceed_a_tiny_budget(self):
        instance = fixed_size_instance(100, 400, set_size=10, seed=1)
        stream = ReplayableStream(instance, RandomOrder(seed=1))
        for cls in (KKAlgorithm, KKReferenceAlgorithm):
            algorithm = cls(seed=1, space_budget=SpaceBudget(words=4))
            with pytest.raises(SpaceBudgetExceededError):
                algorithm.run(stream.fresh())


class TestOccurrenceRanks:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(0, 50), max_size=200))
    def test_matches_counter_scan(self, values):
        array = np.asarray(values, dtype=np.int64)
        counts = {}
        expected = []
        for value in values:
            counts[value] = counts.get(value, 0) + 1
            expected.append(counts[value])
        for bound in (0, 51):  # comparison sort and uint16 radix path
            ranks = _occurrence_ranks(array, value_bound=bound)
            assert ranks.tolist() == expected


class TestPropertyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=90),
        m=st.integers(min_value=10, max_value=150),
        set_size=st.integers(min_value=2, max_value=9),
        instance_seed=st.integers(min_value=0, max_value=2**16),
        order_seed=st.integers(min_value=0, max_value=2**16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_grid(
        self, n, m, set_size, instance_seed, order_seed, seed
    ):
        set_size = min(set_size, n)
        instance = fixed_size_instance(n, m, set_size, seed=instance_seed)
        (fast, _), (ref, _) = _run_pair(
            instance, RandomOrder(seed=order_seed), seed
        )
        _assert_identical(fast, ref)


class TestColumnarPipeline:
    """``stream_of`` (CSR → permutation → gather) against the tuple pipeline.

    Both sides run the same vectorized ``kk`` on one instance and one
    seeded order; only stream preparation differs, so every output byte
    must agree.
    """

    @staticmethod
    def _solve(instance, stream, seed):
        tracer = RecordingTracer()
        algorithm = KKAlgorithm(seed=seed)
        algorithm.set_tracer(tracer)
        result = algorithm.run(stream)
        tracer.finish()
        result.verify(instance)
        return result, tracer.to_jsonl()

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize(
        "make_instance",
        [
            lambda seed: fixed_size_instance(150, 500, set_size=9, seed=seed),
            lambda seed: planted_partition_instance(90, 200, opt_size=7, seed=seed).instance,
        ],
    )
    @pytest.mark.parametrize("order_name", ["random", "round-robin", "set-grouped", "canonical"])
    def test_matches_tuple_pipeline(self, make_instance, seed, order_name):
        from repro.streaming.orders import make_order
        from repro.streaming.reference import reference_stream_of
        from repro.streaming.stream import stream_of

        instance = make_instance(seed)
        fast, fast_trace = self._solve(
            instance, stream_of(instance, make_order(order_name, seed=seed + 3)), seed
        )
        ref, ref_trace = self._solve(
            instance,
            reference_stream_of(instance, make_order(order_name, seed=seed + 3)),
            seed,
        )
        _assert_identical(fast, ref)
        assert fast_trace == ref_trace
        assert len(fast_trace) > 0

    def test_loaded_instance_matches_reference_loader(self, tmp_path):
        from repro.streaming.io import dump_instance, load_instance
        from repro.streaming.reference import (
            load_instance_reference,
            reference_stream_of,
        )

        path = tmp_path / "instance.txt"
        dump_instance(fixed_size_instance(200, 400, set_size=8, seed=4), path)
        fast_instance = load_instance(path)
        ref_instance = load_instance_reference(path)
        assert fast_instance == ref_instance
        assert fast_instance.name == ref_instance.name
        fast, fast_trace = self._solve(
            fast_instance, ReplayableStream(fast_instance, RandomOrder(seed=2)).fresh(), 2
        )
        ref, ref_trace = self._solve(
            ref_instance, reference_stream_of(ref_instance, RandomOrder(seed=2)), 2
        )
        _assert_identical(fast, ref)
        assert fast_trace == ref_trace
