"""Tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import batch  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402
import probe  # noqa: E402
from probe import P0_MS, HostProbe, correction_factor, corrected, count_overlaps  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from stats import TooFewSamples, iqr_spread, min_samples, percentile, samples_beyond  # noqa: E402
from verify import HarnessInstance, OpLedger, check_cover, parse_cli_cover  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# A 4-element instance: sets {0,1}, {2,3}, {1,2}.
TINY = HarnessInstance.of(4, [[0, 1], [2, 3], [1, 2]])


class TestPercentileRule:
    def test_p50_needs_twenty_samples(self):
        assert min_samples(50) == 20
        assert samples_beyond(50, 20) == 10
        with pytest.raises(TooFewSamples):
            percentile(list(range(19)), 50)
        assert percentile(list(range(20)), 50) == 9.0

    def test_p90_needs_a_hundred_samples(self):
        assert min_samples(90) == 100
        with pytest.raises(TooFewSamples):
            percentile([1.0] * 99, 90)
        assert percentile([float(i) for i in range(100)], 90) == 89.0

    def test_nearest_rank_returns_a_measured_sample(self):
        samples = [5.0, 1.0, 3.0] * 10
        assert percentile(samples, 50) in samples

    def test_failures_sit_at_the_top_of_the_sample(self):
        samples = [1.0] * 15 + [math.inf] * 10
        assert percentile(samples, 50) == 1.0
        assert percentile([1.0] * 10 + [math.inf] * 15, 50) == math.inf

    def test_iqr_spread_matches_statistics_quantiles(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        assert iqr_spread(values) == pytest.approx((11.5 - 8.5) / 10.0)


class TestProbeCorrection:
    def test_correction_arithmetic(self):
        assert correction_factor([P0_MS / 2, P0_MS * 3 / 2]) == 1.0
        assert corrected(2.0, [P0_MS * 2, P0_MS * 2]) == 1.0
        assert corrected(2.0, [P0_MS / 2]) == 4.0
        # A host at half speed doubles the raw time and the probe alike.
        assert corrected(2.0 * 2, [P0_MS * 2, P0_MS * 2]) == 2.0

    def test_correction_rejects_missing_or_bad_probes(self):
        with pytest.raises(ValueError):
            correction_factor([])
        with pytest.raises(ValueError):
            correction_factor([0.0, 0.0])

    def test_probe_refuses_to_run_with_an_op_in_flight(self):
        probe = HostProbe(work=lambda: 0, rounds=1)
        probe.op_started()
        with pytest.raises(RuntimeError):
            probe.measure()
        probe.op_finished()
        probe.measure()
        assert probe.overlaps() == 0

    def test_probe_refuses_while_another_thread_holds_an_op(self):
        probe = HostProbe(work=lambda: 0, rounds=1)
        started, release = threading.Event(), threading.Event()

        def op():
            probe.op_started()
            started.set()
            release.wait(timeout=10)
            probe.op_finished()

        worker = threading.Thread(target=op)
        worker.start()
        try:
            assert started.wait(timeout=10)
            with pytest.raises(RuntimeError):
                probe.measure()
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        probe.measure()
        assert probe.overlaps() == 0

    def test_overlap_count(self):
        assert count_overlaps([(0, 1), (3, 4)], [(1, 3)]) == 0
        assert count_overlaps([(0, 2)], [(1, 3), (5, 6)]) == 1

    def test_keep_awake_spins_at_idle_priority_and_stops(self, monkeypatch):
        started = []
        real_popen = probe.subprocess.Popen

        def recording_popen(*args, **kwargs):
            started.append(real_popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(probe.subprocess, "Popen", recording_popen)
        with probe.keep_awake([0]):
            assert len(started) == 1
            assert os.sched_getscheduler(started[0].pid) == os.SCHED_IDLE
            assert started[0].poll() is None
        assert started[0].poll() is not None

    def test_finish_without_start_is_an_error(self):
        with pytest.raises(RuntimeError):
            HostProbe(work=lambda: 0).op_finished()


class TestHarnessVerification:
    def test_a_real_cover_checks_out(self):
        assert check_cover(TINY, [0, 1], [(0, 0), (1, 0), (2, 1), (3, 1)]) == []

    def test_forged_covers_are_caught(self):
        assert check_cover(TINY, [0])  # elements 2 and 3 uncovered
        assert check_cover(TINY, [0, 1, 7])  # no set 7
        assert check_cover(TINY, [0, 1], [(0, 0), (1, 0), (2, 0), (3, 1)])
        assert check_cover(TINY, [0, 1], [(0, 0), (1, 0), (2, 1)])

    def test_a_degraded_reply_need_not_cover_but_must_be_true(self):
        assert check_cover(TINY, [0], [(0, 0), (1, 0)], partial=True) == []
        assert check_cover(TINY, [0], [(3, 0)], partial=True)

    def test_cli_cover_parsing(self):
        assert parse_cli_cover("valid True\ncover: 3 1 2\n") == [3, 1, 2]
        with pytest.raises(ValueError):
            parse_cli_cover("error: boom\n")

    def _phase(self, replies):
        phase = serve_load.LoadPhase(replies=replies)
        phase.burst_raw_s.append(1.0)
        phase.burst_factor.append(1.0)
        return phase

    def _reply(self, index, result=None, error=None):
        request = serve_load.Request(index, "solve", {"instance": "tiny", "seed": index})
        return serve_load.Reply(request, 0.01, 0, result=result, error=error)

    def _result(self, index, cover, certificate):
        return {"instance": "tiny", "seed": index, "degraded": False,
                "cover": cover, "certificate": certificate}

    def test_forged_invalid_cover_lowers_ok_frac(self):
        good = self._result(0, (0, 1), ((0, 0), (1, 0), (2, 1), (3, 1)))
        bad = self._result(1, (0,), ((0, 0), (1, 0)))
        ledger = serve_load.check_replies(
            self._phase([self._reply(0, good), self._reply(1, bad)]), {"tiny": TINY}
        )
        assert (ledger.attempted, ledger.ok, ledger.invalid) == (2, 1, 1)
        assert ledger.ok_frac == 0.5
        assert math.inf in ledger.latencies

    def test_forged_admission_rejection_lowers_ok_frac(self):
        good = self._result(0, (0, 1), ((0, 0), (1, 0), (2, 1), (3, 1)))
        ledger = serve_load.check_replies(
            self._phase([self._reply(0, good), self._reply(1, error="admission")]),
            {"tiny": TINY},
        )
        assert ledger.ok_frac == 0.5
        assert ledger.failures == {"admission": 1}
        assert ledger.invalid == 0
        assert len(ledger.latencies) == 2

    def test_degraded_reply_is_ok_but_stays_out_of_cover_size(self):
        good = self._result(0, (0, 1), ((0, 0), (1, 0), (2, 1), (3, 1)))
        replies = [self._reply(i, dict(good, seed=i)) for i in range(120)]
        chaos = serve_load.Request(120, "chaos", {"instance": "tiny", "seed": 120})
        partial = dict(self._result(120, (0,), ((0, 0), (1, 0))), degraded=True)
        degraded = serve_load.Reply(chaos, 0.01, 0, result=partial)

        def measured(replies):
            phase = self._phase(replies)
            ledger = serve_load.check_replies(phase, {"tiny": TINY})
            return serve_load.e2e_metrics(phase, ledger, 1.0, 1.0)[0]

        alone, mixed = measured(replies), measured(replies + [degraded])
        assert mixed["ok_frac"] == 1.0
        assert mixed["cover_size"] == alone["cover_size"] == 2.0

    def test_ledger_keeps_failed_ops_in_the_sample(self):
        ledger = OpLedger()
        ledger.record_ok(0.5, 0.6)
        ledger.record_failure("exit", "exit code 1")
        assert ledger.failed == 1
        assert ledger.latencies == [0.5, math.inf]


class TestSpans:
    def test_self_time_and_uncovered_remainder(self):
        rec = SpanRecorder()
        with rec.span("op.solve", "op-0") as op:
            with rec.span("streaming.load", "op-0", op):
                pass
            with rec.span("core.kk_run", "op-0", op):
                pass
        children = rec.children(op)
        assert [c.name for c in children] == ["streaming.load", "core.kk_run"]
        assert all(c.op_id == "op-0" for c in children)
        layers = rec.layer_self_ms(op)
        covered = sum(layers.values())
        assert rec.self_ms(op) == pytest.approx(op.duration_ms - covered)

    def test_threads_sharing_a_recorder_get_distinct_span_ids(self):
        rec = SpanRecorder()
        threads, ops = 8, 300

        def client(worker):
            for i in range(ops):
                with rec.span("op.solve", f"w{worker}-{i}") as op:
                    with rec.span("serve.solve", f"w{worker}-{i}", op):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=client, args=(w,)) for w in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [s.span_id for s in rec.spans] == list(range(2 * threads * ops))
        for span in rec.spans:
            if span.parent is not None:
                assert rec.spans[span.parent].op_id == span.op_id

    def test_spans_are_written_out(self, tmp_path):
        rec = SpanRecorder()
        with rec.span("op.x", "o"):
            pass
        rec.dump(tmp_path / "spans.json")
        written = json.loads((tmp_path / "spans.json").read_text())
        assert written[0]["name"] == "op.x"


class TestBenchmarkJson:
    def test_workload_names_round_trip(self):
        names = [w["name"] for w in SPEC["workloads"]]
        assert sorted(names) == sorted(run.WORKLOADS)
        for name in names:
            args = run.build_parser().parse_args(
                ["--workload", name, "--seed", "17", "--seconds", "3", "--trace", "1"]
            )
            assert (args.workload, args.seed, args.trace) == (name, 17, 1)

    def test_seed_fixes_the_inputs(self):
        assert serve_load.request_list(5, 50) == serve_load.request_list(5, 50)
        assert serve_load.request_list(5, 50) != serve_load.request_list(6, 50)
        first = batch.op_seeds(5)
        again = batch.op_seeds(5)
        assert [next(first) for _ in range(5)] == [next(again) for _ in range(5)]

    def test_request_mix_is_exact_in_every_block(self):
        requests = serve_load.request_list(1, 5000)
        for start in range(0, len(requests), 10):
            block = [(r.kind, r.fields["instance"]) for r in requests[start:start + 10]]
            for name in ("planted", "zipf"):
                assert block.count(("solve", name)) == 3
                assert block.count(("distribute", name)) == 1
                assert block.count(("chaos", name)) == 1
        assert [r.kind for r in requests[:10]] != [r.kind for r in requests[10:20]]

    def test_metric_lists_match(self):
        assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER
        assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")

    def test_result_line_reports_every_metric(self):
        line = metrics.result_line(True, 3, 0, {"setup_s": 0.5}, metrics.END_TO_END)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(metrics.END_TO_END)
        assert line["metrics"]["setup_s"] == {"value": 0.5, "unit": "s"}


class TestDecompositionParity:
    """The traced decomposition gives the CLI's cover on a small file."""

    @pytest.fixture()
    def small_file(self, tmp_path):
        from repro.generators.random_instances import fixed_size_instance
        from repro.streaming.io import dump_instance

        path = tmp_path / "small.txt"
        dump_instance(fixed_size_instance(60, 120, 6, seed=3), path)
        return path

    @pytest.mark.parametrize("kind", ["solve", "distribute"])
    def test_parity(self, kind, small_file):
        from repro.cli import main

        traced = batch.traced_solve if kind == "solve" else batch.traced_distribute
        for seed in (1, 2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(batch.cli_argv(kind, small_file, seed)) == 0
            rec = SpanRecorder()
            result = traced(rec, "op", small_file, seed)
            assert result["cover"] == parse_cli_cover(out.getvalue())
            assert rec.self_ms(result["op"]) >= 0.0

    def test_cli_defaults_on_the_decomposed_path(self, small_file, monkeypatch):
        assert batch.undecomposed_defaults("distribute", small_file) == []
        pinned = dict(batch.DECOMPOSED_DISTRIBUTE, ingest="stream", async_sim=True)
        monkeypatch.setattr(batch, "DECOMPOSED_DISTRIBUTE", pinned)
        assert batch.undecomposed_defaults("distribute", small_file) == ["async_sim", "ingest"]
        assert batch.undecomposed_defaults("solve", small_file) == []
