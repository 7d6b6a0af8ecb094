"""Protocol transcripts -- the "view" of Definition 5.

A :class:`Transcript` records every message that crossed the channel:
sender, receiver, a protocol-phase label and the message's wire bytes,
from which each entry derives the deserialized value and the wire
size.  The privacy simulators (``repro.core.simulators``) compare
the distribution of real transcript entries against simulator output, and
the leakage ledger cites transcript labels as evidence.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from repro.net.serialization import (
    deserialize_message,
    list_header,
    serialize_message,
)


@dataclass(frozen=True)
class TranscriptEntry:
    """One message crossing the channel, kept as its wire bytes."""

    index: int
    sender: str
    receiver: str
    label: str
    wire: bytes = field(repr=False)

    @property
    def value(self):
        """The message value, deserialized from :attr:`wire` on access
        (only analyses read it, so a run never pays for it)."""
        return deserialize_message(self.wire)

    @property
    def size_bytes(self) -> int:
        return len(self.wire)


@dataclass
class Transcript:
    """Ordered record of all messages in a protocol execution.

    ``record`` is locked so threads recording into one transcript (the
    scheduler tests drive channels from worker threads) cannot assign
    duplicate indices; entry *order* under true concurrency is whatever
    the interleaving produced.
    """

    entries: list[TranscriptEntry] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, sender: str, receiver: str, label: str,
               wire: bytes) -> TranscriptEntry:
        """Record one message by its wire bytes (``serialize_message``
        of its value), which every channel already holds; the value and
        the size derive from them."""
        with self._lock:
            entry = TranscriptEntry(
                index=len(self.entries),
                sender=sender,
                receiver=receiver,
                label=label,
                wire=wire,
            )
            self.entries.append(entry)
        return entry

    def extend(self, other: "Transcript") -> None:
        """Append another stream of the same link, re-indexed -- how a
        pair's per-driver streams form its one canonical transcript."""
        for entry in list(other.entries):
            self.record(entry.sender, entry.receiver, entry.label,
                        entry.wire)

    def received_by(self, party_name: str) -> list[TranscriptEntry]:
        """The messages constituting ``party_name``'s view (Def. 5)."""
        return [e for e in self.entries if e.receiver == party_name]

    def sent_by(self, party_name: str) -> list[TranscriptEntry]:
        return [e for e in self.entries if e.sender == party_name]

    def with_label(self, label_prefix: str) -> list[TranscriptEntry]:
        """All entries whose label starts with ``label_prefix``.

        Protocols namespace labels like ``"mult/encrypted_x"`` so phases
        can be isolated for analysis.
        """
        return [e for e in self.entries if e.label.startswith(label_prefix)]

    def total_bytes(self) -> int:
        return sum(e.size_bytes for e in self.entries)

    def message_count(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()


def transcript_digest(transcript: Transcript) -> str:
    """SHA-256 over the transcript's canonical wire rendering.

    Each entry contributes ``serialize_message([sender, receiver, label,
    value])`` -- the canonical encoding the fuzz suite guarantees is
    injective -- so two transcripts share a digest iff their message
    sequences are bit-identical.  The bytes are assembled from the list
    header, the three encoded strings and the recorded wire bytes of
    the value, so no value is serialized a second time.  The socket
    runtime compares digests instead of shipping full transcripts
    between processes: both ends of every TCP pair must agree, and an
    orchestrated run must match the in-process fabric entry for entry.
    """
    digest = hashlib.sha256()
    for entry in transcript.entries:
        digest.update(list_header(4))
        digest.update(serialize_message(entry.sender))
        digest.update(serialize_message(entry.receiver))
        digest.update(serialize_message(entry.label))
        digest.update(entry.wire)
    return digest.hexdigest()
