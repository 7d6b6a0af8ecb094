"""Two-party messaging substrate.

The paper's complexity claims (Sections 4.2.2, 4.3.2, 5.1) are about
communication bits, and its privacy proofs (Definition 5) are about the
*view* -- the sequence of messages a party receives.  This package
provides both: a duplex channel whose endpoints serialize every message,
count the exact bytes, and append to a transcript that the privacy
simulators replay.

In process the channel delivers through its own per-receiver deques;
a daemon's channel, whose far party runs in another process
(:class:`repro.runtime.mirror.MirrorChannel`), sends and substitutes
frames through the pair links of ``repro.net.transport``.
"""

from repro.net.serialization import serialize_message, deserialize_message
from repro.net.channel import (
    Channel,
    ChannelClosedError,
    ChannelEndpoint,
    drive,
)
from repro.net.transcript import Transcript, TranscriptEntry
from repro.net.stats import CommunicationStats
from repro.net.party import Party
from repro.net.transport import (
    ProtocolDesyncError,
    TransportClosedError,
    TransportError,
    TransportTimeoutError,
)

__all__ = [
    "serialize_message",
    "deserialize_message",
    "Channel",
    "ChannelEndpoint",
    "ChannelClosedError",
    "drive",
    "Transcript",
    "TranscriptEntry",
    "CommunicationStats",
    "Party",
    "TransportError",
    "TransportClosedError",
    "TransportTimeoutError",
    "ProtocolDesyncError",
]
