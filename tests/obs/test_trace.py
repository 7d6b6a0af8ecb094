"""Span tracing: the privacy guard, JSONL emission, and summaries.

The property tests are the PR's privacy bar: no integer large enough to
be a plaintext, randomness factor, or key component -- and no long or
numeric string, and no byte payload -- can appear in an emitted trace.
The guard reduces them to sizes and truncated digests, which are too
short to contain the original decimal expansion.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.trace import (
    INT_BOUND,
    NULL_SPAN,
    format_trace_summary,
    guard_value,
    read_trace_dir,
    summarize_trace_dir,
    tracer_for,
)


class TestGuardValue:
    def test_safe_shapes_pass_through(self):
        for value in (None, True, False, 7, -12, 0.25, "pass0",
                      "party0-party1"):
            assert guard_value(value) == value

    def test_big_int_reduced_to_digest(self):
        secret = 2 ** 512 + 12345
        guarded = guard_value(secret)
        assert set(guarded) == {"digest", "bits"}
        assert guarded["bits"] == secret.bit_length()
        assert guarded["digest"].startswith("sha256:")

    def test_bytes_reduced_to_digest_and_len(self):
        guarded = guard_value(b"\x00\x01wire payload")
        assert set(guarded) == {"digest", "len"}
        assert guarded["len"] == 14

    def test_containers_reduced_to_sizes(self):
        assert guard_value([1, 2, 3]) == {"len": 3}
        assert guard_value((1,)) == {"len": 1}
        assert guard_value({"a": 1, "b": 2}) == {"keys": 2}

    def test_unknown_object_reduced_to_type_name(self):
        class Opaque:
            pass

        assert guard_value(Opaque()) == {"type": "Opaque"}

    @given(st.integers(min_value=INT_BOUND, max_value=2 ** 2048))
    def test_no_big_int_survives(self, secret):
        """Crypto material is arbitrary precision: its decimal expansion
        must never appear in the guarded output, in either sign."""
        for value in (secret, -secret):
            emitted = json.dumps(guard_value(value))
            assert str(abs(value)) not in emitted

    @given(st.integers(max_value=INT_BOUND - 1,
                       min_value=-(INT_BOUND - 1)))
    def test_protocol_sized_ints_pass(self, value):
        assert guard_value(value) == value

    @given(st.text(alphabet="0123456789", min_size=19, max_size=700))
    def test_no_numeric_string_survives(self, digits):
        """A stringified plaintext or factor is digested, and the
        16-hex-char digest is too short to contain the original run."""
        emitted = json.dumps(guard_value(digits))
        assert digits not in emitted

    @given(st.text(min_size=121, max_size=500))
    def test_no_long_string_survives(self, text):
        guarded = guard_value(text)
        assert set(guarded) == {"digest", "len"}
        assert guarded["len"] == len(text)

    @given(st.binary(min_size=1, max_size=200))
    def test_no_bytes_survive(self, payload):
        guarded = guard_value(payload)
        assert set(guarded) == {"digest", "len"}
        assert len(guarded["digest"]) == len("sha256:") + 16


class TestTracer:
    def test_disabled_tracer_hands_out_null_span(self, tmp_path):
        tracer = tracer_for(None, "party0")
        assert not tracer.enabled
        span = tracer.span("session", "s0")
        assert span is NULL_SPAN
        assert span.child("pass", "p0") is NULL_SPAN
        assert list(tmp_path.iterdir()) == []

    def test_spans_emit_jsonl_with_parent_ids(self, tmp_path):
        tracer = tracer_for(tmp_path, "party0")
        with tracer.span("session", "s0", parties=3) as session:
            with session.child("pass", "pass0", index=0) as span:
                span.set(served=2)
        tracer.close()
        records = read_trace_dir(tmp_path)
        assert [record["kind"] for record in records] == ["pass",
                                                          "session"]
        by_kind = {record["kind"]: record for record in records}
        assert by_kind["pass"]["parent"] == by_kind["session"]["id"]
        assert by_kind["session"]["parent"] is None
        assert by_kind["pass"]["attrs"] == {"index": 0, "served": 2}
        assert by_kind["session"]["party"] == "party0"
        assert by_kind["session"]["dur"] >= by_kind["pass"]["dur"] >= 0

    def test_span_attrs_pass_the_guard(self, tmp_path):
        tracer = tracer_for(tmp_path, "party0")
        secret = 2 ** 256 + 7
        with tracer.span("session", "s0", plaintext=secret):
            pass
        tracer.close()
        raw = (tmp_path / "party0.jsonl").read_text()
        assert str(secret) not in raw
        assert "bits" in raw

    def test_exception_recorded_as_error_attr(self, tmp_path):
        tracer = tracer_for(tmp_path, "party0")
        with pytest.raises(RuntimeError):
            with tracer.span("session", "s0"):
                raise RuntimeError("boom")
        tracer.close()
        [record] = read_trace_dir(tmp_path)
        assert record["attrs"]["error"] == "RuntimeError"

    def test_close_is_idempotent_and_final(self, tmp_path):
        tracer = tracer_for(tmp_path, "party0")
        span = tracer.span("session", "s0")
        span.close()
        span.close()
        tracer.close()
        tracer.close()
        assert len(read_trace_dir(tmp_path)) == 1


def _write_trace(path, party, records):
    path.mkdir(exist_ok=True)
    with open(path / f"{party}.jsonl", "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _span(party, span_id, parent, kind, name, dur, t0=0.0, **attrs):
    return {"id": span_id, "parent": parent, "kind": kind, "name": name,
            "party": party, "t0": t0, "t1": t0 + dur, "dur": dur,
            "attrs": attrs}


class TestSummaries:
    def test_critical_path_is_the_union_of_queries(self, tmp_path):
        """A pass runs its queries at once: the critical path is the
        time covered by at least one of them, not their sum (6.5 here)
        nor the sum of per-point maxima (4.5)."""
        _write_trace(tmp_path, "p0", [
            _span("p0", 1, None, "session", "s0", 10.0),
            _span("p0", 2, 1, "pass", "pass0", 9.0, role="drive"),
            _span("p0", 3, 2, "peer_query", "query0:p1", 2.0, t0=0.0,
                  query=0, peer="p1"),
            _span("p0", 4, 2, "peer_query", "query0:p2", 3.0, t0=0.5,
                  query=0, peer="p2"),
            _span("p0", 5, 2, "peer_query", "query1:p1", 1.5, t0=5.0,
                  query=1, peer="p1"),
            _span("p0", 6, 3, "attempt", "attempt0", 1.0, attempt=0),
            _span("p0", 7, 3, "attempt", "attempt1", 1.0, attempt=1),
            _span("p0", 8, 4, "attempt", "attempt0", 3.0, attempt=0),
        ])
        summary = summarize_trace_dir(tmp_path)
        entry = summary["sessions"]["s0"]["parties"]["p0"]
        assert entry["duration"] == 10.0
        [row] = entry["passes"]
        assert row["role"] == "drive"
        assert row["queries"] == 3
        assert row["critical_path"] == pytest.approx(3.5 + 1.5)
        assert row["attempts"] == 3
        assert row["restarts"] == 1  # one query needed a second attempt

    def test_parties_grouped_under_one_session(self, tmp_path):
        _write_trace(tmp_path, "p0", [
            _span("p0", 1, None, "session", "s0", 4.0),
            _span("p0", 2, 1, "pass", "pass0", 3.0, role="drive"),
        ])
        _write_trace(tmp_path, "p1", [
            _span("p1", 1, None, "session", "s0", 4.5),
            _span("p1", 2, 1, "pass", "pass0", 3.5, role="respond",
                  served=2),
        ])
        summary = summarize_trace_dir(tmp_path)
        parties = summary["sessions"]["s0"]["parties"]
        assert set(parties) == {"p0", "p1"}
        assert parties["p1"]["passes"][0]["role"] == "respond"

    def test_orphan_spans_are_skipped(self, tmp_path):
        _write_trace(tmp_path, "p0", [
            _span("p0", 9, 99, "pass", "pass0", 1.0),
        ])
        assert summarize_trace_dir(tmp_path) == {"sessions": {}}

    def test_format_renders_every_pass_line(self, tmp_path):
        _write_trace(tmp_path, "p0", [
            _span("p0", 1, None, "session", "s0", 4.0),
            _span("p0", 2, 1, "pass", "pass0", 3.0, role="drive"),
            _span("p0", 3, 1, "pass", "pass1", 1.0, role="respond"),
        ])
        text = format_trace_summary(summarize_trace_dir(tmp_path))
        assert "session s0" in text
        assert "party p0: 4.000s total" in text
        assert "pass0 [drive] 3.000s" in text
        assert "pass1 [respond] 1.000s" in text

    def test_pass_rows_follow_the_pass_index(self, tmp_path):
        """From eleven parties on, names sort pass10 before pass2; the
        rows follow each span's index instead."""
        records = [_span("p0", 1, None, "session", "s0", 20.0)]
        for span_id, index in enumerate((10, 2, 0, 9, 1), start=2):
            records.append(_span("p0", span_id, 1, "pass", f"pass{index}",
                                 1.0, index=index, role="respond"))
        _write_trace(tmp_path, "p0", records)
        summary = summarize_trace_dir(tmp_path)
        rows = summary["sessions"]["s0"]["parties"]["p0"]["passes"]
        assert [row["name"] for row in rows] \
            == ["pass0", "pass1", "pass2", "pass9", "pass10"]
        assert [row["index"] for row in rows] == [0, 1, 2, 9, 10]
        text = format_trace_summary(summary)
        assert text.index("pass2 [") < text.index("pass10 [")

    def test_overlapping_passes_report_union_and_sum(self, tmp_path):
        """A daemon runs its pass roles at once: the summary shows the
        time covered by any pass next to the passes' summed time."""
        _write_trace(tmp_path, "p0", [
            _span("p0", 1, None, "session", "s0", 8.0),
            _span("p0", 2, 1, "pass", "pass0", 3.0, t0=0.0, index=0,
                  role="drive"),
            _span("p0", 3, 1, "pass", "pass1", 3.0, t0=1.0, index=1,
                  role="respond"),
            _span("p0", 4, 1, "pass", "pass2", 1.0, t0=6.0, index=2,
                  role="respond"),
        ])
        summary = summarize_trace_dir(tmp_path)
        entry = summary["sessions"]["s0"]["parties"]["p0"]
        assert entry["passes_sum"] == pytest.approx(7.0)
        assert entry["passes_union"] == pytest.approx(5.0)
        assert "passes 7.000s summed 5.000s union" \
            in format_trace_summary(summary)

    def test_setup_and_first_drive_query_offset(self, tmp_path):
        """Per party, the session's setup and the offset from its start
        at which the first drive query started; setup spans and
        respond queries do not move either."""
        _write_trace(tmp_path, "p0", [
            _span("p0", 1, None, "session", "s0", 1.0, t0=2.0,
                  setup_seconds=0.051),
            _span("p0", 2, 1, "sync", "sync", 0.05, t0=2.0, peers=1),
            _span("p0", 3, 1, "adopt", "keys:p1", 0.05, t0=2.051,
                  peer="p1"),
            _span("p0", 4, 1, "pass", "pass0", 0.9, t0=2.051, index=0,
                  role="drive"),
            _span("p0", 5, 4, "peer_query", "query1:p1", 0.2, t0=2.4,
                  query=1, peer="p1"),
            _span("p0", 6, 4, "peer_query", "query0:p1", 0.2, t0=2.052,
                  query=0, peer="p1"),
            _span("p0", 7, 1, "pass", "pass1", 0.9, t0=2.1, index=1,
                  role="respond"),
            _span("p0", 8, 7, "peer_query", "serve0:p1", 0.1, t0=2.101,
                  query=0, peer="p1"),
        ])
        _write_trace(tmp_path, "p1", [
            _span("p1", 1, None, "session", "s0", 1.0)])
        summary = summarize_trace_dir(tmp_path)
        parties = summary["sessions"]["s0"]["parties"]
        assert parties["p0"]["setup"] == 0.051
        assert parties["p0"]["first_query"] == pytest.approx(0.052)
        assert [row["name"] for row in parties["p0"]["passes"]] \
            == ["pass0", "pass1"]
        assert parties["p1"]["setup"] is None
        assert parties["p1"]["first_query"] is None
        text = format_trace_summary(summary)
        assert ("party p0: 1.000s total, setup 0.051s, first drive query "
                "at 0.052s") in text
        assert "party p1: 1.000s total, setup -, first drive query at -" \
            in text

    def test_sync_check_end_next_to_the_first_drive_query(self, tmp_path):
        """A daemon's first queries leave before its check of the peers'
        sync records ends; the summary prints both offsets from the
        session's start, so the overlap shows."""
        _write_trace(tmp_path, "p0", [
            _span("p0", 2, 1, "sync", "sync", 0.052, t0=2.0, peers=2),
            _span("p0", 3, 1, "pass", "pass0", 0.25, t0=2.003, index=0,
                  role="drive"),
            _span("p0", 4, 3, "peer_query", "query0:p1", 0.2, t0=2.004,
                  query=0, peer="p1"),
            _span("p0", 1, None, "session", "s0", 0.3, t0=2.0,
                  setup_seconds=0.003),
        ])
        _write_trace(tmp_path, "p1", [
            _span("p1", 1, None, "session", "s0", 0.3)])
        summary = summarize_trace_dir(tmp_path)
        parties = summary["sessions"]["s0"]["parties"]
        assert parties["p0"]["first_query"] == pytest.approx(0.004)
        assert parties["p0"]["sync_checked"] == pytest.approx(0.052)
        assert parties["p1"]["sync_checked"] is None
        text = format_trace_summary(summary)
        assert ("setup 0.003s, first drive query at 0.004s, sync checked "
                "at 0.052s, passes 0.250s summed") in text
        assert "first drive query at -, sync checked at -, passes" in text

    def test_sequential_passes_union_equals_sum(self, tmp_path):
        _write_trace(tmp_path, "p0", [
            _span("p0", 1, None, "session", "s0", 4.0),
            _span("p0", 2, 1, "pass", "pass0", 1.5, t0=0.0, index=0),
            _span("p0", 3, 1, "pass", "pass1", 2.0, t0=1.5, index=1),
        ])
        entry = summarize_trace_dir(tmp_path)["sessions"]["s0"][
            "parties"]["p0"]
        assert entry["passes_union"] == pytest.approx(
            entry["passes_sum"]) == pytest.approx(3.5)

    def test_non_jsonl_files_ignored(self, tmp_path):
        _write_trace(tmp_path, "p0", [
            _span("p0", 1, None, "session", "s0", 1.0)])
        (tmp_path / "notes.txt").write_text("not a trace")
        assert len(read_trace_dir(tmp_path)) == 1
