"""Protocol transcripts -- the "view" of Definition 5.

A :class:`Transcript` records every message that crossed the channel:
sender, receiver, a protocol-phase label, the deserialized value, and the
wire size.  The privacy simulators (``repro.core.simulators``) compare
the distribution of real transcript entries against simulator output, and
the leakage ledger cites transcript labels as evidence.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TranscriptEntry:
    """One message crossing the channel."""

    index: int
    sender: str
    receiver: str
    label: str
    value: object
    size_bytes: int


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

    def record(self, sender: str, receiver: str, label: str, value,
               size_bytes: int) -> TranscriptEntry:
        with self._lock:
            entry = TranscriptEntry(
                index=len(self.entries),
                sender=sender,
                receiver=receiver,
                label=label,
                value=value,
                size_bytes=size_bytes,
            )
            self.entries.append(entry)
        return entry

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
    sequences are bit-identical.  The socket runtime compares digests
    instead of shipping full transcripts between processes: both ends of
    every TCP pair must agree, and an orchestrated run must match the
    in-process fabric entry for entry.
    """
    from repro.net.serialization import serialize_message

    digest = hashlib.sha256()
    for entry in transcript.entries:
        digest.update(serialize_message(
            [entry.sender, entry.receiver, entry.label, entry.value]))
    return digest.hexdigest()
