"""Two-party messaging substrate.

The paper's complexity claims (Sections 4.2.2, 4.3.2, 5.1) are about
communication bits, and its privacy proofs (Definition 5) are about the
*view* -- the sequence of messages a party receives.  This package
provides both: a duplex channel whose endpoints serialize every message,
count the exact bytes, and append to a transcript that the privacy
simulators replay.

Delivery underneath the channel is a ``repro.net.transport`` fabric:
in-process deques for choreographies that run both parties in one
interpreter, and socket fabrics for the runtimes whose parties live in
separate processes.
"""

from repro.net.serialization import serialize_message, deserialize_message
from repro.net.channel import Channel, ChannelEndpoint, ChannelClosedError
from repro.net.transcript import Transcript, TranscriptEntry
from repro.net.stats import CommunicationStats
from repro.net.party import Party
from repro.net.transport import (
    InProcessTransport,
    ProtocolDesyncError,
    Transport,
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
    "Transcript",
    "TranscriptEntry",
    "CommunicationStats",
    "Party",
    "Transport",
    "TransportError",
    "TransportClosedError",
    "TransportTimeoutError",
    "ProtocolDesyncError",
    "InProcessTransport",
]
