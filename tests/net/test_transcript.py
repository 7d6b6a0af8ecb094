"""Transcript (Definition 5 view) bookkeeping tests."""

import hashlib

from hypothesis import given, strategies as st

from repro.net.serialization import serialize_message
from repro.net.transcript import Transcript, transcript_digest
from tests.net.test_serialization_fuzz import message_values


def _populated() -> Transcript:
    transcript = Transcript()
    transcript.record("alice", "bob", "mult/encrypted_x",
                      serialize_message(111))
    transcript.record("bob", "alice", "mult/masked_product",
                      serialize_message(2**70))
    transcript.record("alice", "bob", "cmp/bits", serialize_message([1, 2]))
    return transcript


def _digest_by_definition(transcript: Transcript) -> str:
    """The digest as defined: each entry's ``[sender, receiver, label,
    value]`` serialized whole."""
    digest = hashlib.sha256()
    for entry in transcript.entries:
        digest.update(serialize_message(
            [entry.sender, entry.receiver, entry.label, entry.value]))
    return digest.hexdigest()


entries = st.lists(st.tuples(st.text(max_size=8), st.text(max_size=8),
                             st.text(max_size=12), message_values),
                   max_size=8)


class TestTranscript:
    def test_ordering_and_indices(self):
        transcript = _populated()
        assert [e.index for e in transcript.entries] == [0, 1, 2]

    def test_received_by_is_the_view(self):
        transcript = _populated()
        bob_view = transcript.received_by("bob")
        assert [e.label for e in bob_view] == ["mult/encrypted_x", "cmp/bits"]
        alice_view = transcript.received_by("alice")
        assert [e.value for e in alice_view] == [2**70]

    def test_sent_by(self):
        transcript = _populated()
        assert len(transcript.sent_by("alice")) == 2

    def test_label_prefix_filter(self):
        transcript = _populated()
        assert len(transcript.with_label("mult/")) == 2
        assert len(transcript.with_label("cmp")) == 1
        assert transcript.with_label("nothing") == []

    def test_totals(self):
        transcript = _populated()
        assert transcript.total_bytes() == 7 + 15 + 19
        assert transcript.message_count() == 3

    def test_value_and_size_come_from_the_wire(self):
        entry = _populated().entries[1]
        assert entry.value == 2**70
        assert entry.size_bytes == len(entry.wire) == 15

    def test_clear(self):
        transcript = _populated()
        transcript.clear()
        assert transcript.message_count() == 0


class TestDigest:
    @given(entries)
    def test_equals_the_definition_on_fuzzed_transcripts(self, messages):
        transcript = Transcript()
        for sender, receiver, label, value in messages:
            transcript.record(sender, receiver, label,
                              serialize_message(value))
        assert transcript_digest(transcript) \
            == _digest_by_definition(transcript)

    def test_extend_keeps_the_digest(self):
        source = _populated()
        copy = Transcript()
        copy.extend(source)
        assert transcript_digest(copy) == transcript_digest(source) \
            == _digest_by_definition(source)
