"""Unit tests for the observability substrate (`repro.obs`).

The metrics registry and the tracer are dependency-free and process-local
by design; these tests pin their contracts — snapshot shapes, merge
semantics, the sampling decision, span parenting, suppression depth,
the write-behind sink, and the trace-file invariants `repro trace
--validate` enforces.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS_MS,
    MetricsRegistry,
    counter_samples,
    counter_total,
    counter_value,
    histogram_quantile,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.trace import (
    CLOCK_SLACK_S,
    NULL_TRACER,
    SINK_BATCH,
    Span,
    Tracer,
    current_tracer,
    read_trace,
    render_trace,
    set_tracer,
    validate_trace,
)


class TestMetricsFamilies:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        served = registry.counter("t_requests_total", "Requests.", ("route",))
        served.labels("exact-dp").inc()
        served.labels("exact-dp").inc(2)
        served.labels("karp-luby").inc(5)
        snap = registry.snapshot()
        assert counter_value(snap, "t_requests_total", ("exact-dp",)) == 3.0
        assert counter_value(snap, "t_requests_total", ("karp-luby",)) == 5.0
        assert counter_total(snap, "t_requests_total") == 8.0
        assert counter_value(snap, "t_requests_total", ("missing",)) == 0.0
        assert counter_samples(snap, "absent") == []

    def test_counters_are_monotone(self):
        counter = MetricsRegistry().counter("t_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("t_depth")
        gauge.set(4)
        gauge.labels().inc()
        gauge.labels().inc(-2)
        assert gauge.value() == 3.0

    def test_histogram_buckets_observe_inclusive_upper_bound(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_ms", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            histogram.observe(value)
        sample = registry.snapshot()["histograms"]["t_ms"]["samples"][0][1]
        assert sample["counts"] == [2, 0, 1, 1]  # 1.0 lands in the <=1 bucket
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(104.5)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("t_ms", buckets=(2.0, 1.0))

    def test_get_or_create_is_idempotent_but_typed(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total", "x", ("a",))
        assert registry.counter("t_total", "x", ("a",)) is first
        with pytest.raises(ValueError):
            registry.gauge("t_total")
        with pytest.raises(ValueError):
            registry.counter("t_total", "x", ("other",))

    def test_label_arity_is_checked(self):
        served = MetricsRegistry().counter("t_total", labelnames=("route",))
        with pytest.raises(ValueError):
            served.labels("a", "b")

    def test_default_buckets_are_log_scale(self):
        assert DEFAULT_BUCKETS_MS[0] == 0.001
        assert len(DEFAULT_BUCKETS_MS) == 28
        ratios = {
            round(b / a)
            for a, b in zip(DEFAULT_BUCKETS_MS, DEFAULT_BUCKETS_MS[1:])
        }
        assert ratios == {2}


class TestSnapshotsAndMerging:
    def _snapshot(self, route_count):
        registry = MetricsRegistry()
        registry.counter("t_requests_total", "Requests.", ("route",)).labels(
            "exact-dp"
        ).inc(route_count)
        registry.gauge("t_depth").set(route_count)
        histogram = registry.histogram("t_ms")
        histogram.observe(0.5)
        return registry.snapshot()

    def test_snapshot_is_json_roundtrippable(self):
        snap = self._snapshot(2)
        assert json.loads(json.dumps(snap)) == snap

    def test_merge_sums_counters_and_histograms_keeps_last_gauge(self):
        merged = merge_snapshots([self._snapshot(2), self._snapshot(5)])
        assert counter_value(merged, "t_requests_total", ("exact-dp",)) == 7.0
        assert merged["gauges"]["t_depth"]["samples"][0][1] == 5.0
        sample = merged["histograms"]["t_ms"]["samples"][0][1]
        assert sample["count"] == 2 and sum(sample["counts"]) == 2

    def test_merge_leaves_inputs_untouched(self):
        one, two = self._snapshot(1), self._snapshot(1)
        merge_snapshots([one, two])
        assert counter_total(one, "t_requests_total") == 1.0

    def test_merge_rejects_mismatched_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("t_ms", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots([self._snapshot(1), registry.snapshot()])

    def test_render_prometheus_text_format(self):
        text = render_prometheus(self._snapshot(3))
        assert "# TYPE t_requests_total counter" in text
        assert 't_requests_total{route="exact-dp"} 3' in text
        assert "# TYPE t_ms histogram" in text
        assert 't_ms_bucket{le="+Inf"} 1' in text
        assert "t_ms_count 1" in text
        assert render_prometheus({"counters": {}}) == ""


class TestHistogramQuantile:
    def test_interpolates_within_the_winning_bucket(self):
        bounds = (1.0, 2.0, 4.0)
        counts = [0, 4, 0, 0]  # four observations in (1, 2]
        assert histogram_quantile(bounds, counts, 0.5) == pytest.approx(1.5)
        assert histogram_quantile(bounds, counts, 1.0) == pytest.approx(2.0)

    def test_overflow_bucket_clamps_to_last_bound(self):
        assert histogram_quantile((1.0, 2.0), [0, 0, 3], 0.99) == 2.0

    def test_empty_histogram_and_bad_quantile(self):
        assert histogram_quantile((1.0,), [0, 0], 0.5) == 0.0
        with pytest.raises(ValueError):
            histogram_quantile((1.0,), [1, 0], 1.5)

    @staticmethod
    def _quantiles(snapshot, name="t_ms"):
        family = snapshot["histograms"][name]
        sample = family["samples"][0][1]
        return [
            histogram_quantile(
                family["buckets"], sample["counts"], q, sample["min"], sample["max"]
            )
            for q in (0.5, 0.99)
        ]

    def test_single_observation_reports_itself_also_after_a_merge(self):
        # A lone 60.1 ms sample lands in the (32.8, 65.5] bucket, whose
        # interpolated median is 49.2 ms; the observed extremes pin it.
        registry = MetricsRegistry()
        registry.histogram("t_ms").observe(60.1)
        snapshot = registry.snapshot()
        assert self._quantiles(snapshot) == [60.1, 60.1]
        empty = MetricsRegistry()
        empty.histogram("t_ms").labels()  # a series with no observations
        merged = merge_snapshots([empty.snapshot(), snapshot, empty.snapshot()])
        assert self._quantiles(merged) == [60.1, 60.1]

    def test_merge_keeps_the_extremes_of_every_snapshot(self):
        snapshots = []
        for value in (3.0, 60.1, 0.2):
            registry = MetricsRegistry()
            registry.histogram("t_ms").observe(value)
            snapshots.append(registry.snapshot())
        sample = merge_snapshots(snapshots)["histograms"]["t_ms"]["samples"][0][1]
        assert (sample["min"], sample["max"]) == (0.2, 60.1)
        assert json.loads(json.dumps(sample)) == sample

    def test_snapshots_without_extremes_merge_to_unknown_extremes(self):
        # A series written before extremes were tracked may hold any value:
        # the merged extremes are unknown and the quantile stays unclamped.
        registry = MetricsRegistry()
        registry.histogram("t_ms").observe(60.1)
        legacy = registry.snapshot()
        for _labels, sample in legacy["histograms"]["t_ms"]["samples"]:
            del sample["min"], sample["max"]
        merged = merge_snapshots([registry.snapshot(), legacy])
        sample = merged["histograms"]["t_ms"]["samples"][0][1]
        assert (sample["min"], sample["max"]) == (None, None)
        assert self._quantiles(merged)[0] == pytest.approx(49.152)


class TestNullTracer:
    def test_disabled_path_is_inert(self):
        assert not NULL_TRACER
        assert current_tracer() is NULL_TRACER
        span = NULL_TRACER.span("anything")
        assert not span
        with span as inner:
            inner.attrs["dropped"] = True  # discarded, not stored
        assert dict(inner.attrs) == {}
        assert NULL_TRACER.span("x") is span  # one shared no-op span
        assert NULL_TRACER.context() is None
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.phase_totals(NULL_TRACER.mark()) == {}

    def test_set_tracer_installs_and_restores(self):
        tracer = Tracer(sample_rate=1.0)
        previous = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(previous)
        assert current_tracer() is NULL_TRACER


class TestTracer:
    def test_sample_rate_is_validated(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_nested_spans_parent_under_the_stack_top(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        records = tracer.drain()
        assert [r["name"] for r in records] == ["child", "root"]
        assert records[0]["parent"] == records[1]["span"]
        assert records[1]["parent"] is None
        assert validate_trace(records) == []

    def test_span_records_wall_and_cpu_time_and_attrs(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.span("work") as span:
            span.attrs["route"] = "exact-dp"
            sum(range(10000))
        (record,) = tracer.drain()
        assert record["dur_ms"] >= 0.0 and record["cpu_ms"] >= 0.0
        assert record["status"] == "ok"
        assert record["attrs"] == {"route": "exact-dp"}
        assert record["ts"] > 0

    def test_exception_marks_the_span_status_error(self):
        tracer = Tracer(sample_rate=1.0)
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                raise RuntimeError("boom")
        (record,) = tracer.drain()
        assert record["status"] == "error"

    def test_unsampled_root_suppresses_the_whole_tree(self):
        tracer = Tracer(sample_rate=0.0)
        with tracer.span("root") as root:
            assert not root
            with tracer.span("child") as child:
                assert not child
        assert tracer.drain() == []
        # Recording state is balanced: a fully sampled tracer still works.
        sampled = Tracer(sample_rate=1.0)
        with sampled.span("after"):
            pass
        assert len(sampled.drain()) == 1

    def test_sampling_decision_is_per_root_and_seeded(self):
        decisions = []
        for _ in range(2):
            tracer = Tracer(sample_rate=0.5, seed=7)
            run = []
            for _ in range(32):
                with tracer.span("root") as root:
                    run.append(bool(root))
            decisions.append(run)
        assert decisions[0] == decisions[1]  # seeded: same draws run to run
        assert any(decisions[0]) and not all(decisions[0])

    def test_detached_spans_and_explicit_end(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.span("root") as root:
            op = tracer.start_span("dispatch", parent=root)
            tracer.end(op, "retried")
            retry = tracer.start_span("dispatch", parent=(root.trace_id, root.span_id))
            tracer.end(retry, "ok")
        records = tracer.drain()
        statuses = {r["name"]: r["status"] for r in records if r["name"] == "root"}
        assert statuses["root"] == "ok"
        dispatch = [r for r in records if r["name"] == "dispatch"]
        assert [d["status"] for d in dispatch] == ["retried", "ok"]
        assert all(d["parent"] == root.span_id for d in dispatch)
        assert validate_trace(records) == []

    def test_context_adopt_release_parent_remote_work(self):
        coordinator = Tracer(sample_rate=1.0)
        worker = Tracer(sample_rate=0.0)  # adoption-only, like a pool worker
        worker._prefix = "w0"  # ids are pid-prefixed; fake the child process
        with coordinator.span("service.submit_many") as root:
            context = coordinator.context(root)
            assert context == (root.trace_id, root.span_id)
            token = worker.adopt(context)
            with worker.span("worker.solve") as solve:
                assert solve  # adopted work records even at rate 0.0
                assert solve.trace_id == root.trace_id
                assert solve.parent_id == root.span_id
            worker.release(token)
            with worker.span("idle") as idle:
                assert not idle  # released: back to the 0.0 sampling decision
            coordinator.ingest(worker.drain())
        records = coordinator.drain()
        assert validate_trace(records) == []
        assert {r["name"] for r in records} == {
            "service.submit_many", "worker.solve"
        }

    def test_adopting_none_is_a_no_op(self):
        worker = Tracer(sample_rate=0.0)
        token = worker.adopt(None)
        with worker.span("work") as span:
            assert not span
        worker.release(token)
        assert worker.drain() == []

    def test_mark_and_phase_totals_cover_only_the_suffix(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.span("before"):
            pass
        mark = tracer.mark()
        with tracer.span("solve"):
            with tracer.span("compile"):
                pass
            with tracer.span("compile"):
                pass
        totals = tracer.phase_totals(mark)
        assert set(totals) == {"solve", "compile"}
        assert totals["compile"] >= 0.0
        assert tracer.phase_totals(tracer.mark()) == {}

    def test_ring_is_bounded(self):
        tracer = Tracer(sample_rate=1.0, ring_size=8)
        for _ in range(20):
            with tracer.span("s"):
                pass
        assert len(tracer.drain()) == 8


class TestSink:
    def test_sink_is_write_behind_and_complete_after_close(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sample_rate=1.0, sink_path=path)
        for _ in range(3):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        tracer.close()
        records = read_trace(path)
        assert len(records) == 6
        assert validate_trace(records) == []

    def test_sink_flushes_on_its_own_past_the_batch_threshold(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sample_rate=1.0, sink_path=path)
        for _ in range(SINK_BATCH + 10):
            with tracer.span("s"):
                pass
        written = read_trace(path)  # before close: at least one batch is out
        assert len(written) >= SINK_BATCH
        tracer.close()
        assert len(read_trace(path)) == SINK_BATCH + 10

    def test_close_is_idempotent_and_flush_without_sink_is_a_no_op(self, tmp_path):
        Tracer(sample_rate=1.0).flush()  # no sink: nothing to do
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sample_rate=1.0, sink_path=path)
        with tracer.span("s"):
            pass
        tracer.close()
        tracer.close()
        assert len(read_trace(path)) == 1


class TestTraceFileChecks:
    def _records(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        return tracer.drain()

    def test_valid_trace_has_no_violations(self):
        assert validate_trace(self._records()) == []

    def test_orphan_parent_is_reported(self):
        records = self._records()
        records[0]["parent"] = "nope-1"
        problems = validate_trace(records)
        assert any("orphan" in p for p in problems)

    def test_duplicate_span_ids_are_reported(self):
        records = self._records()
        records[1]["span"] = records[0]["span"]
        assert any("duplicate" in p for p in validate_trace(records))

    def test_unclosed_status_and_negative_duration_are_reported(self):
        records = self._records()
        records[0]["status"] = "open"
        records[1]["dur_ms"] = -1.0
        problems = validate_trace(records)
        assert any("not closed" in p for p in problems)
        assert any("negative duration" in p for p in problems)

    def test_child_starting_before_its_parent_is_reported(self):
        records = self._records()
        child = next(r for r in records if r["name"] == "child")
        child["ts"] = min(r["ts"] for r in records) - 10 * CLOCK_SLACK_S
        assert any("before its parent" in p for p in validate_trace(records))

    def test_missing_fields_are_reported(self):
        assert any(
            "missing field" in p for p in validate_trace([{"span": "x"}])
        )

    def test_cross_trace_parent_is_reported(self):
        records = self._records()
        child = next(r for r in records if r["name"] == "child")
        child["trace"] = "t-other"
        assert any("another trace" in p for p in validate_trace(records))

    def test_render_trace_shows_tree_totals_and_coverage(self):
        text = render_trace(self._records())
        assert "root" in text and "child" in text
        assert "phase totals:" in text
        assert "coverage:" in text
        assert text.index("root") < text.index("child")

    def test_read_trace_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sample_rate=1.0, sink_path=path)
        with tracer.span("s") as span:
            span.attrs["k"] = "v"
        tracer.close()
        (record,) = read_trace(path)
        assert record["name"] == "s" and record["attrs"] == {"k": "v"}


class TestSpanObject:
    def test_span_record_matches_ring_record(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.span("s") as span:
            pass
        assert isinstance(span, Span)
        record = span.record()
        (ring_record,) = tracer.drain()
        ring_record.pop("seq")
        assert record == ring_record
