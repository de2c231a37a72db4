"""Experiment runner: algorithms × instances × orders × seeds.

:class:`ExperimentRunner` freezes a stream per (instance, order, seed)
triple via :class:`ReplayableStream`, so every algorithm in a
comparison sees the identical edge sequence, then collects
:class:`RunMetrics` rows ready for the table renderer.

Resilience plumbing (all opt-in, zero cost when unused):

* ``retries`` — a failed cell re-executes up to that many extra times.
  The first retry reuses the cell's own seed (a *transient* worker
  failure therefore reproduces the uninterrupted serial result
  bit-identically); later retries derive fresh deterministic seeds,
  since a seed that failed twice is failing deterministically.
* ``timeout`` — cooperative per-run wall-clock bound; a run that
  finishes over budget raises :class:`~repro.errors.RunTimeoutError`.
* ``journal`` — path to a JSONL checkpoint; completed cells are flushed
  as they finish and a resumed sweep loads them back bit-identically,
  executing only the missing cells.
* any exception escaping a worker is re-raised as
  :class:`~repro.errors.ExperimentExecutionError` carrying the failing
  spec's full context (algorithm, order, instance, seed, grid index),
  never a bare thread-pool traceback.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Lock
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.journal import PathLike, SweepJournal, spec_fingerprint
from repro.analysis.metrics import RunMetrics, metrics_from_result
from repro.analysis.opt import opt_or_bound
from repro.core.base import StreamingSetCoverAlgorithm
from repro.errors import ExperimentExecutionError, RunTimeoutError
from repro.obs.tracer import TraceCollector
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import make_order
from repro.streaming.stream import ReplayableStream
from repro.types import SeedLike, make_rng

AlgorithmFactory = Callable[[int], StreamingSetCoverAlgorithm]
"""Build a fresh algorithm from an integer seed."""

#: Odd 63-bit multiplier (splitmix64's constant) for retry-seed derivation.
_SEED_MIX = 0x9E3779B97F4A7C15


def derive_retry_seed(seed: int, attempt: int) -> int:
    """Seed for retry ``attempt`` of a cell whose spec seed is ``seed``.

    Attempts 0 and 1 return ``seed`` unchanged — a transient failure
    retried once reproduces the uninterrupted run exactly.  From the
    second retry on, the seed is remixed deterministically: the original
    seed has now failed twice, so it is presumed deterministically bad.
    The remix is guaranteed to differ from ``seed`` — a fixed point
    would silently replay the failing seed forever.
    """
    if attempt <= 1:
        return seed
    derived = ((seed ^ (attempt * _SEED_MIX)) * _SEED_MIX + attempt) % (2**63)
    while derived == seed:
        derived = (derived * _SEED_MIX + 1) % (2**63)
    return derived


@dataclass
class RunSpec:
    """One cell of an experiment grid."""

    instance: SetCoverInstance
    order_name: str
    algorithm_name: str
    opt_handle: Optional[int] = None  # planted OPT if known


class ExperimentRunner:
    """Runs a grid of algorithms over instances and arrival orders.

    Parameters
    ----------
    algorithms:
        Mapping ``name -> factory(seed)``.
    seed:
        Master seed; per-run seeds are derived deterministically.
    collector:
        Optional :class:`~repro.obs.tracer.TraceCollector`; when given,
        every run gets a fresh recording tracer keyed by a
        deterministic cell label, and the merged JSONL is byte-identical
        whatever ``max_workers`` is (labels sort the merge; a retried
        cell's last attempt wins because ``tracer_for`` replaces the
        cell's tracer).
    """

    def __init__(
        self,
        algorithms: Dict[str, AlgorithmFactory],
        seed: SeedLike = None,
        collector: Optional[TraceCollector] = None,
    ) -> None:
        if not algorithms:
            raise ValueError("need at least one algorithm")
        self.algorithms = dict(algorithms)
        self._rng = make_rng(seed)
        self._collector = collector
        # Test hook: called as (spec_index, attempt) before each cell
        # attempt; raising from it simulates a worker failure.
        self._fault_hook: Optional[Callable[[int, int], None]] = None

    def run_one(
        self,
        instance: SetCoverInstance,
        order_name: str,
        algorithm_name: str,
        opt_handle: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> RunMetrics:
        """Run a single algorithm on a single ordered stream."""
        seed = seed if seed is not None else self._rng.getrandbits(63)
        order = make_order(order_name, seed=seed)
        replayable = ReplayableStream(instance, order)
        return self._execute(
            replayable,
            algorithm_name,
            opt_handle=opt_handle,
            seed=seed,
            trace_label=f"single:{algorithm_name}",
        )

    def compare(
        self,
        instance: SetCoverInstance,
        order_name: str,
        opt_handle: Optional[int] = None,
        replications: int = 1,
        max_workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        journal: Optional[PathLike] = None,
    ) -> List[RunMetrics]:
        """All algorithms on identical streams, ``replications`` times.

        With ``max_workers > 1`` the runs execute on a thread pool.  The
        per-replication seeds are drawn up front in the same order the
        serial path draws them, every run gets its own algorithm
        instance and one-pass stream view over the shared frozen edge
        buffer, and rows are collected in submission order — so the
        result is *identical* to ``max_workers=1`` for a fixed master
        seed, whatever the pool's scheduling.  ``timeout`` / ``retries``
        / ``journal`` are the resilience knobs described in the module
        docstring.
        """
        specs = self._build_specs(instance, order_name, opt_handle, replications)
        return self._execute_specs(
            specs, max_workers, timeout=timeout, retries=retries, journal=journal
        )

    def sweep_instances(
        self,
        instances: Sequence[Tuple[SetCoverInstance, Optional[int]]],
        order_name: str,
        replications: int = 1,
        max_workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        journal: Optional[PathLike] = None,
    ) -> List[RunMetrics]:
        """All algorithms across ``(instance, planted_opt)`` pairs.

        ``max_workers`` parallelises the whole grid (not one instance at
        a time) with the same determinism guarantee as :meth:`compare`.
        """
        specs: List[Tuple[ReplayableStream, str, Optional[int], int]] = []
        for instance, opt_handle in instances:
            specs.extend(
                self._build_specs(instance, order_name, opt_handle, replications)
            )
        return self._execute_specs(
            specs, max_workers, timeout=timeout, retries=retries, journal=journal
        )

    # -- internals -------------------------------------------------------

    def _build_specs(
        self,
        instance: SetCoverInstance,
        order_name: str,
        opt_handle: Optional[int],
        replications: int,
    ) -> List[Tuple[ReplayableStream, str, Optional[int], int]]:
        """Draw seeds and freeze streams for one comparison, serially.

        All randomness is consumed here, before any (possibly
        concurrent) execution, which is what makes the parallel path
        bit-identical to the serial one.
        """
        specs: List[Tuple[ReplayableStream, str, Optional[int], int]] = []
        for _ in range(replications):
            seed = self._rng.getrandbits(63)
            order = make_order(order_name, seed=seed)
            replayable = ReplayableStream(instance, order)
            for name in self.algorithms:
                specs.append((replayable, name, opt_handle, seed))
        return specs

    def _execute_specs(
        self,
        specs: Sequence[Tuple[ReplayableStream, str, Optional[int], int]],
        max_workers: int,
        timeout: Optional[float] = None,
        retries: int = 0,
        journal: Optional[PathLike] = None,
    ) -> List[RunMetrics]:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        store = SweepJournal(journal) if journal is not None else None
        journal_lock = Lock()
        results: List[Optional[RunMetrics]] = [None] * len(specs)
        pending: List[int] = []
        for index in range(len(specs)):
            row = store.get(self._fingerprint(index, specs[index])) if store else None
            if row is not None:
                results[index] = row
            else:
                pending.append(index)

        def run_cell(index: int) -> RunMetrics:
            metrics = self._execute_with_recovery(
                index, specs[index], timeout=timeout, retries=retries
            )
            if store is not None:
                # Flushed the moment the cell completes, so a killed
                # sweep resumes from every finished cell.
                with journal_lock:
                    store.record(self._fingerprint(index, specs[index]), metrics)
            return metrics

        if max_workers == 1 or len(pending) <= 1:
            for index in pending:
                results[index] = run_cell(index)
        else:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                futures = [pool.submit(run_cell, index) for index in pending]
                for index, future in zip(pending, futures):
                    results[index] = future.result()
        return results  # type: ignore[return-value]  # every slot filled above

    def _fingerprint(
        self, index: int, spec: Tuple[ReplayableStream, str, Optional[int], int]
    ) -> str:
        replayable, name, _, seed = spec
        instance = replayable.instance
        return spec_fingerprint(
            index,
            name,
            replayable.order_name,
            seed,
            instance.n,
            instance.m,
            instance.num_edges,
        )

    def _execute_with_recovery(
        self,
        index: int,
        spec: Tuple[ReplayableStream, str, Optional[int], int],
        timeout: Optional[float],
        retries: int,
    ) -> RunMetrics:
        replayable, name, opt_handle, seed = spec
        context = (
            f"algorithm={name!r} order={replayable.order_name!r} "
            f"seed={seed} spec_index={index}"
        )
        last_error: Optional[BaseException] = None
        for attempt in range(retries + 1):
            try:
                if self._fault_hook is not None:
                    self._fault_hook(index, attempt)
                started = time.perf_counter()
                metrics = self._execute(
                    replayable,
                    name,
                    opt_handle=opt_handle,
                    seed=derive_retry_seed(seed, attempt),
                    trace_label=f"{index:05d}:{name}",
                )
                elapsed = time.perf_counter() - started
                if timeout is not None and elapsed > timeout:
                    raise RunTimeoutError(
                        context=context, elapsed=elapsed, timeout=timeout
                    )
                return metrics
            except RunTimeoutError:
                # A timed-out run is slow, not flaky: retrying would
                # just double the damage.
                raise
            except Exception as error:  # noqa: BLE001 — wrapped below
                last_error = error
        assert last_error is not None
        raise ExperimentExecutionError(
            algorithm=name,
            order=replayable.order_name,
            instance=repr(replayable.instance),
            seed=seed,
            spec_index=index,
            attempts=retries + 1,
            cause=last_error,
        ) from last_error

    def _execute(
        self,
        replayable: ReplayableStream,
        algorithm_name: str,
        opt_handle: Optional[int],
        seed: int,
        trace_label: str = "",
    ) -> RunMetrics:
        factory = self.algorithms[algorithm_name]
        algorithm = factory(seed)
        if self._collector is not None:
            algorithm.set_tracer(self._collector.tracer_for(trace_label))
        stream = replayable.fresh()
        result = algorithm.run(stream)
        instance = replayable.instance
        if opt_handle is not None:
            handle, exact = opt_handle, True
        else:
            handle, exact = opt_or_bound(instance)
        return metrics_from_result(
            result,
            instance,
            order=replayable.order_name,
            opt_handle=handle,
            opt_is_exact=exact,
            stream_length=replayable.length,
            seed=seed,
        )
