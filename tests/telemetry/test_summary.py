"""Property test: the incrementally kept ``TelemetrySummary`` equals the
one recomputed from the ring, across eviction, merges and clears."""

from hypothesis import given, settings, strategies as st

from repro.telemetry import NULL_METRICS, TelemetrySummary
from repro.telemetry.spans import NULL_RECORDER, SpanRecord, TraceRecorder

NAMES = st.sampled_from(["suite.run", "kernel.run", "memo.peek", "x"])

FOREIGN = st.lists(
    st.tuples(NAMES, st.integers(min_value=0, max_value=10**12)),
    max_size=8,
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("span"), NAMES),
        st.tuples(st.just("merge"), FOREIGN),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=40,
)


def apply(rec, ops):
    """Run ``ops`` on ``rec``; returns the spans appended since the last
    ``clear`` (the ring plus what it evicted)."""
    appended = 0
    for kind, arg in ops:
        if kind == "span":
            with rec.span(arg):
                pass
            appended += 1
        elif kind == "merge":
            rec.merge(
                SpanRecord(name, 3 * span_id, duration, span_id, None, 7, 7)
                for span_id, (name, duration) in enumerate(arg)
            )
            appended += len(arg)
        else:
            rec.clear()
            appended = 0
    return appended


@settings(max_examples=200, deadline=None)
@given(max_spans=st.integers(min_value=1, max_value=6), ops=OPS)
def test_summary_matches_ring(max_spans, ops):
    rec = TraceRecorder(max_spans=max_spans)
    appended = apply(rec, ops)
    summary = TelemetrySummary.capture(rec, NULL_METRICS)
    records = rec.records()

    counts: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    for record in records:
        counts[record.name] = counts.get(record.name, 0) + 1
        total_ns[record.name] = (
            total_ns.get(record.name, 0) + record.duration_ns
        )
    assert summary.span_count == len(records) == len(rec)
    assert summary.phase_counts == counts
    assert summary.dropped_spans == rec.dropped == appended - len(records)
    assert summary.phase_seconds == {
        name: total / 1e9 for name, total in total_ns.items()
    }


def test_null_recorder_summary_is_empty():
    summary = TelemetrySummary.capture(NULL_RECORDER, NULL_METRICS)
    assert summary.span_count == 0
    assert summary.phase_counts == {} and summary.phase_seconds == {}
