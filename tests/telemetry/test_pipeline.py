"""Integration: the instrumented pipeline under a telemetry session.

Pins the acceptance criteria: a traced sweep covers the
compile/predict/memo (and, under chaos, retry) phases, the ``cache.*``
gauges reconcile *exactly* with the legacy ``cache_stats`` view, traced
results stay bit-identical to untraced ones, and with telemetry off the
results carry no summary at all.
"""

import asyncio

import pytest

from repro import telemetry
from repro.kernels.registry import all_kernels
from repro.machine import catalog
from repro.resilience import chaos, transient_plan
from repro.resilience.retry import FailurePolicy, RetrySpec
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.runner import run_suite
from repro.suite.sweep import sweep
from repro.serve import PredictionServer, ServeConfig
from repro.telemetry.spans import SpanRecord, TraceRecorder

from tests.serve.helpers import http_request

CPU = catalog.sg2042()
KERNELS = all_kernels()[:8]
GRID = dict(
    threads=(1, 8),
    placements=(Placement.BLOCK, Placement.CYCLIC),
    precisions=(Precision.FP32,),
)


class TestSuiteTelemetry:
    def test_off_by_default(self):
        result = run_suite(CPU, RunConfig(threads=4), kernels=KERNELS)
        assert result.telemetry is None

    def test_traced_suite_summary(self):
        with telemetry.telemetry_session():
            result = run_suite(CPU, RunConfig(threads=4),
                               kernels=KERNELS)
        summary = result.telemetry
        assert summary is not None
        assert summary.phase_counts["suite.run"] == 1
        assert summary.phase_counts["kernel.run"] == len(KERNELS)
        assert summary.counters["suite.runs"] == 1
        assert summary.counters["suite.kernel_runs"] == len(KERNELS)
        assert summary.dropped_spans == 0

    def test_traced_suite_bit_identical(self):
        plain = run_suite(CPU, RunConfig(threads=4), kernels=KERNELS)
        with telemetry.telemetry_session():
            traced = run_suite(CPU, RunConfig(threads=4),
                               kernels=KERNELS)
        assert traced == plain  # telemetry/cache_stats excluded from eq

    def test_render_mentions_phases(self):
        with telemetry.telemetry_session():
            result = run_suite(CPU, RunConfig(threads=1),
                               kernels=KERNELS)
        text = result.telemetry.render()
        assert "suite.run" in text
        assert "span(s)" in text


class TestSweepTelemetry:
    def test_off_by_default(self):
        result = sweep(CPU, KERNELS, **GRID)
        assert result.telemetry is None

    def test_phase_coverage(self):
        with telemetry.telemetry_session() as (rec, _):
            result = sweep(CPU, KERNELS, **GRID)
        names = {r.name for r in rec.records()}
        assert {"sweep", "sweep.prefetch", "suite.run", "kernel.run",
                "memo.peek", "compile.resolve", "compile.analyze",
                "predict.grid"} <= names
        assert result.telemetry.phase_counts["sweep"] == 1

    def test_span_tree_roots_at_sweep(self):
        with telemetry.telemetry_session() as (rec, _):
            sweep(CPU, KERNELS, **GRID)
        records = rec.records()
        by_id = {r.span_id: r for r in records}
        (root,) = [r for r in records if r.name == "sweep"]
        assert root.parent_id is None
        for r in records:
            if r.name in ("sweep.prefetch", "suite.run"):
                assert by_id[r.parent_id].name == "sweep"

    def test_cache_gauges_reconcile_exactly(self):
        with telemetry.telemetry_session():
            result = sweep(CPU, KERNELS, **GRID)
        stats = result.cache_stats
        gauges = result.telemetry.gauges
        for metric, field_name in stats.METRIC_FIELDS:
            assert gauges[metric] == getattr(stats, field_name), metric

    def test_sweep_counters(self):
        with telemetry.telemetry_session():
            result = sweep(CPU, KERNELS, **GRID)
        counters = result.telemetry.counters
        assert counters["sweep.runs"] == 1
        assert counters["sweep.points"] == len(result.points)
        assert counters["suite.runs"] == 4  # grid points
        assert "sweep.failures" not in counters
        # Every batched prediction fills one memo slot, so the engine
        # counter equals the memo's miss count exactly.
        assert (counters["engine.batch.predictions"]
                == result.telemetry.gauges["cache.predict.misses"])

    def test_traced_sweep_bit_identical(self):
        plain = sweep(CPU, KERNELS, **GRID)
        with telemetry.telemetry_session():
            traced = sweep(CPU, KERNELS, **GRID)
        assert traced == plain

    def test_scalar_engine_records_scalar_predictions(self):
        with telemetry.telemetry_session():
            result = sweep(CPU, KERNELS, engine="scalar", **GRID)
        assert "predict.scalar" in result.telemetry.phase_counts
        assert "predict.grid" not in result.telemetry.phase_counts


class TestRetryTelemetry:
    def test_retry_phases_and_counters_under_chaos(self):
        plan = transient_plan(seed=2042, probability=0.2,
                              max_failures=2)
        with telemetry.telemetry_session():
            with chaos.inject_faults(plan):
                result = sweep(
                    CPU, KERNELS, policy=FailurePolicy.RETRY,
                    retry=RetrySpec(max_retries=3), **GRID,
                )
        summary = result.telemetry
        assert summary.phase_counts.get("retry", 0) >= 1
        assert summary.phase_counts.get("retry.attempt", 0) >= 1
        assert summary.counters.get("retry.attempts", 0) >= 1

    def test_exhausted_counter(self):
        always = transient_plan(seed=1, probability=1.0)
        with telemetry.telemetry_session():
            with chaos.inject_faults(always):
                result = sweep(
                    CPU, KERNELS[:2], policy=FailurePolicy.RETRY,
                    retry=RetrySpec(max_retries=1), threads=(1,),
                )
        assert result.failures
        summary = result.telemetry
        assert summary.counters["retry.exhausted"] >= 1
        assert summary.counters["sweep.failures"] == len(result.failures)


class TestSummaryShape:
    def test_phase_seconds_are_inclusive(self):
        with telemetry.telemetry_session():
            result = sweep(CPU, KERNELS, **GRID)
        summary = result.telemetry
        # The root sweep span contains everything, so its inclusive time
        # dominates any child phase.
        assert summary.phase_seconds["sweep"] >= max(
            v for k, v in summary.phase_seconds.items() if k != "sweep"
        )

    def test_summary_is_picklable(self):
        import pickle

        with telemetry.telemetry_session():
            result = sweep(CPU, KERNELS, **GRID)
        clone = pickle.loads(pickle.dumps(result.telemetry))
        assert clone.counters == result.telemetry.counters

    def test_report_helper_renders(self):
        from repro.suite.report import telemetry_summary

        plain = sweep(CPU, KERNELS, **GRID)
        assert "telemetry: off" in telemetry_summary(plain)
        with telemetry.telemetry_session():
            traced = sweep(CPU, KERNELS, **GRID)
        assert "span(s)" in telemetry_summary(traced)


class TestEnginePathNeverWalksRing:
    """A traced ``run_suite`` and a served ``/predict`` summarize from
    the recorder's running totals; only exporters call ``records()``."""

    @pytest.fixture(autouse=True)
    def forbid_records(self, monkeypatch):
        def records(self):
            raise AssertionError("engine path walked the span ring")

        monkeypatch.setattr(TraceRecorder, "records", records)

    def test_traced_run_suite(self):
        with telemetry.telemetry_session():
            result = run_suite(CPU, RunConfig(threads=4), kernels=KERNELS)
        assert result.telemetry.phase_counts["kernel.run"] == len(KERNELS)

    def test_served_predict(self):
        async def main():
            server = PredictionServer(ServeConfig(port=0,
                                                  drain_timeout_s=2.0))
            await server.start()
            try:
                return await http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "TRIAD", "threads": 8},
                )
            finally:
                await server.drain()  # captures the final summary too

        status, _, body = asyncio.run(main())
        assert status == 200, body

    def test_prefilled_ring_summary(self):
        max_spans = 16
        foreign = [SpanRecord("worker.span", i, 10, i, None, 2, 2)
                   for i in range(max_spans + 5)]
        with telemetry.telemetry_session(max_spans=max_spans) as (rec, _):
            rec.merge(foreign)
            result = run_suite(CPU, RunConfig(threads=1), kernels=KERNELS[:2])
        summary = result.telemetry
        own = sum(n for name, n in summary.phase_counts.items()
                  if name != "worker.span")
        assert summary.span_count == max_spans
        assert summary.dropped_spans == 5 + own
        assert summary.phase_counts["worker.span"] == max_spans - own
        assert summary.phase_counts["suite.run"] == 1
        assert summary.phase_seconds["worker.span"] == (
            10 * (max_spans - own) / 1e9
        )
