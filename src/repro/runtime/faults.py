"""Deterministic fault injection for the daemon runtime.

A :class:`FaultPlan` is a *manifest-carried*, seeded description of the
failures a run must survive (or die of, for the failure-path tests).
Carrying the plan in the manifest -- inside the session-sync digest,
like every other run parameter -- means every daemon interprets the
same plan, so chaos runs are exactly as reproducible as fault-free
runs: the same manifest produces the same kills at the same protocol
points, and recovery can be tested against the bit-identical
equivalence bar.

Spec grammar (the CLI's ``--fault`` strings)::

    kill:<party>@pass<N>              exit hard (code 13) at the
                                      boundary where N of this party's
                                      pass roles have completed
    kill:<party>@pass<N>.q<Q>         exit hard in pass N, as this
                                      party starts the query on the
                                      driver's point Q-1
    drop:<party>:<a>-<b>@pass<N>      abort the pair's link (no goodbye)
                                      at boundary N
    drop:<party>:<a>-<b>@pass<N>.q<Q> the same, mid-pass
    delay:<party>:<a>-<b>@pass<N>.f<F>:<seconds>
                                      hold the F-th message frame this
                                      party sends on the pair in the
                                      query on pass N's point 0 -- and
                                      every later frame on that link --
                                      for <seconds>; all arrive intact
                                      and in order
    truncate:<party>:<a>-<b>@pass<N>.f<F>
                                      write a seeded-length prefix of
                                      that frame, then close the link
                                      (the peer reads EOF mid-frame)

Pass N is the pass driven by the manifest's N-th party (0-based).  The
k passes of a session run at the same time, and each daemon holds one
*role* in every pass: it drives its own and responds to each peer's.
Within a pass every query -- one per (driver's point, peer), each on
its own stream -- runs at the same time too.  A boundary counts this
daemon's completed roles, in whatever order they complete; boundary 0
is the session's start, once the session-sync records are sent and
before the key announcements.

Mid-pass faults are keyed by the driver's point index, never by
arrival order, so each names the same protocol point on every run
however the concurrent passes and queries interleave:

- ``.q<Q>`` is the query on pass N's point Q-1.  A drive role fires it
  as that point's first peer query starts; a respond role once the
  driver's first frame of that query has arrived and is about to be
  served.  ``.q1`` is point 0.
- ``.f<F>`` is the F-th message frame this party sends on the pair in
  the query on pass N's point 0 (its stream alone; the frames of the
  pass's other queries are not counted).

Any spec may end with ``@e<E>``: it belongs to attempt ``E`` (default
0) of ``repro orchestrate``, which puts into each attempt's manifest
exactly the specs addressed to that attempt.  That is what makes a
kill terminate: the re-run no longer carries it.  A daemon fires every
spec its manifest carries for its party, each at most once.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace

from repro.net.transport import (
    TransportClosedError,
    canonical_pair,
    derive_seeded_stream,
)

#: Exit code of an injected hard death (``os._exit``); the orchestrator
#: classifies it as a retryable crash, exactly like a real one.
FAULT_EXIT_CODE = 13

_KINDS = ("kill", "drop", "delay", "truncate")
_PAIR_KINDS = ("drop", "delay", "truncate")

_AT_RE = re.compile(
    r"^pass(?P<boundary>\d+)"
    r"(?:\.q(?P<queries>\d+)|\.f(?P<frame>\d+)(?::(?P<seconds>[\d.]+))?)?$")


class FaultSpecError(ValueError):
    """Malformed fault spec string or serialized record."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure.

    ``boundary`` is a completed-role count for a boundary fault (it
    fires the moment ``passes_done == boundary``) and the pass index
    for a mid-pass fault (``queries`` set: at the query on point
    ``queries - 1`` of pass ``boundary``) or a frame fault (``frame``
    set: that message frame of the stream of pass ``boundary``'s
    point 0).  ``epoch`` is the
    orchestrated attempt the spec belongs to (``@e<E>``).
    """

    kind: str
    party: str
    pair: tuple[str, str] | None = None
    boundary: int | None = None
    queries: int | None = None
    frame: int | None = None
    seconds: float | None = None
    epoch: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise FaultSpecError(f"unknown fault kind {self.kind!r}")
        if self.kind in _PAIR_KINDS and self.pair is None:
            raise FaultSpecError(f"{self.kind} faults need a pair")
        if self.kind == "kill" and self.pair is not None:
            raise FaultSpecError("kill faults take no pair")
        if self.boundary is None:
            raise FaultSpecError(f"{self.kind} faults need @pass<N>")
        if self.kind in ("delay", "truncate") and self.frame is None:
            raise FaultSpecError(f"{self.kind} faults need .f<F>")
        if self.kind == "delay" and self.seconds is None:
            raise FaultSpecError("delay faults need :<seconds>")
        if self.kind in ("kill", "drop") and self.frame is not None:
            raise FaultSpecError(f"{self.kind} faults take no .f<F>")

    def pair_key(self) -> str | None:
        return "|".join(self.pair) if self.pair else None

    def to_dict(self) -> dict:
        record = {"kind": self.kind, "party": self.party,
                  "epoch": self.epoch, "seed": self.seed}
        if self.pair is not None:
            record["pair"] = list(self.pair)
        for name in ("boundary", "queries", "frame", "seconds"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "FaultSpec":
        if not isinstance(record, dict):
            raise FaultSpecError(
                f"fault record must be an object, got "
                f"{type(record).__name__}")
        try:
            pair = record.get("pair")
            return cls(kind=record["kind"], party=record["party"],
                       pair=tuple(pair) if pair else None,
                       boundary=record.get("boundary"),
                       queries=record.get("queries"),
                       frame=record.get("frame"),
                       seconds=record.get("seconds"),
                       epoch=record.get("epoch", 0),
                       seed=record.get("seed", 0))
        except KeyError as exc:
            raise FaultSpecError(
                f"fault record missing field {exc}") from exc


def parse_fault(text: str, *, seed: int = 0) -> FaultSpec:
    """Parse one ``--fault`` spec string (grammar in the module doc)."""
    segments = text.strip().split("@")
    head = segments.pop(0)
    epoch = 0
    boundary = queries = frame = None
    seconds = None
    for segment in segments:
        if re.fullmatch(r"e\d+", segment):
            epoch = int(segment[1:])
            continue
        match = _AT_RE.match(segment)
        if match is None:
            raise FaultSpecError(
                f"bad fault location {segment!r} in {text!r} (expected "
                f"pass<N>[.q<Q>|.f<F>[:<seconds>]] or e<E>)")
        boundary = int(match.group("boundary"))
        if match.group("queries") is not None:
            queries = int(match.group("queries"))
        if match.group("frame") is not None:
            frame = int(match.group("frame"))
        if match.group("seconds") is not None:
            seconds = float(match.group("seconds"))
    parts = head.split(":")
    kind = parts[0]
    if kind not in _KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r} in {text!r} (expected one of "
            f"{', '.join(_KINDS)})")
    if kind == "kill":
        if len(parts) != 2:
            raise FaultSpecError(f"kill spec is kill:<party>, got {text!r}")
        pair = None
    else:
        if len(parts) != 3 or "-" not in parts[2]:
            raise FaultSpecError(
                f"{kind} spec is {kind}:<party>:<a>-<b>, got {text!r}")
        left, _, right = parts[2].partition("-")
        pair = canonical_pair(left, right)
    try:
        return FaultSpec(kind=kind, party=parts[1], pair=pair,
                         boundary=boundary, queries=queries, frame=frame,
                         seconds=seconds, epoch=epoch, seed=seed)
    except FaultSpecError as exc:
        raise FaultSpecError(f"{text!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """All planned faults of a run, plus the seed of their coin stream."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, texts, *, seed: int = 0) -> "FaultPlan":
        return cls(specs=tuple(parse_fault(text, seed=seed)
                               for text in texts), seed=seed)

    def to_dicts(self) -> tuple[dict, ...]:
        return tuple(replace(spec, seed=self.seed).to_dict()
                     for spec in self.specs)

    @classmethod
    def from_dicts(cls, records) -> "FaultPlan":
        specs = tuple(FaultSpec.from_dict(record) for record in records)
        return cls(specs=specs, seed=specs[0].seed if specs else 0)

    def for_attempt(self, attempt: int) -> "FaultPlan":
        """The specs addressed to one orchestrated attempt (``@e<E>``)."""
        return replace(self, specs=tuple(spec for spec in self.specs
                                         if spec.epoch == attempt))

    def for_party(self, party: str, hubs=None) -> "PartyFaults | None":
        """One daemon's live fault state for a session, or ``None``
        when no spec names ``party`` (a fault-free session then does
        no per-frame work).  ``hubs`` maps each pair key to the pair's
        :class:`~repro.net.transport.AsyncTcpTransport`."""
        specs = [spec for spec in self.specs if spec.party == party]
        if not specs:
            return None
        return PartyFaults(specs, party=party, hubs=hubs)


class PartyFaults:
    """One daemon's live view of a session's plan for its party.

    The daemon reports the session start (:meth:`at_boundary` with 0:
    the session-sync records are sent, and neither the key
    announcements nor any pass role has started; the peers' records are
    checked later, next to the roles), every completed pass role
    (:meth:`complete_pass`) and every query its party starts or serves
    (:meth:`on_query`); kill and drop specs fire there.  Frame specs act
    inside the :class:`FaultyLink` that :meth:`link` wraps around the
    view of a pass's point-0 stream.  Each spec fires at most once.
    """

    def __init__(self, specs, *, party: str, hubs=None):
        self.specs = list(specs)
        self.party = party
        self.hubs = dict(hubs or {})
        self.passes_done = 0
        self._fired: set[int] = set()

    def _take(self, predicate) -> list[FaultSpec]:
        taken = []
        for index, spec in enumerate(self.specs):
            if index not in self._fired and predicate(spec):
                self._fired.add(index)
                taken.append(spec)
        return taken

    def at_boundary(self, passes_done: int) -> None:
        self.passes_done = passes_done
        self._apply(self._take(
            lambda s: s.kind in ("kill", "drop") and s.queries is None
            and s.boundary == passes_done), f"at boundary {passes_done}")

    def complete_pass(self) -> None:
        """One more of this party's pass roles has finished."""
        self.at_boundary(self.passes_done + 1)

    def on_query(self, pass_index: int, point_index: int) -> None:
        """A query on pass ``pass_index``'s point ``point_index`` starts
        here (a drive role calls this once per peer; the spec fires on
        the first)."""
        self._apply(self._take(
            lambda s: s.kind in ("kill", "drop")
            and s.queries == point_index + 1
            and s.boundary == pass_index),
            f"in pass {pass_index}, query {point_index + 1}")

    def _apply(self, fired: list[FaultSpec], context: str) -> None:
        for spec in fired:
            if spec.kind == "kill":
                # The injected hard death: no goodbye, no cleanup, no
                # report -- exactly the shape of a real crash.
                print(f"[fault injection] {self.party} dying ({context})",
                      flush=True)
                os._exit(FAULT_EXIT_CODE)
        for spec in fired:
            hub = self.hubs.get(spec.pair_key())
            if hub is not None:
                hub.abort(f"[fault injection] {self.party} dropped link "
                          f"{spec.pair_key()} {context}")

    def link(self, view, pair_key: str, pass_index: int,
             point_index: int):
        """``view`` -- the pair's stream of the query on pass
        ``pass_index``'s point ``point_index`` -- itself, or a
        :class:`FaultyLink` around it when a frame spec names this pair
        and pass and the stream is the point-0 one."""
        specs = [spec for spec in self.specs
                 if spec.kind in ("delay", "truncate")
                 and spec.pair_key() == pair_key
                 and spec.boundary == pass_index and point_index == 0]
        return FaultyLink(view, specs) if specs else view


class FaultyLink:
    """A stream's pair link that interprets frame-level faults.

    Counts the message frames the stream's channel delivers, so
    ``.f<F>`` means "the F-th message frame this party sends on the
    pair in the query on that pass's point 0".  A delay holds the pair
    connection's writer; a truncation writes a seeded-length prefix of
    the encoded frame and closes the connection, and this side's send
    fails as a lost connection.
    """

    def __init__(self, view, specs):
        self.left_name = view.left_name
        self.right_name = view.right_name
        self.view = view
        self._specs = list(specs)
        self._frames = 0

    def deliver(self, sender: str, receiver: str, label: str,
                wire: bytes) -> None:
        self._frames += 1
        hub = self.view.hub
        for spec in [spec for spec in self._specs
                     if spec.frame == self._frames]:
            self._specs.remove(spec)
            if spec.kind == "delay":
                hub.hold_writes(spec.seconds)
                continue
            frame = self.view.encode_message(label, wire)
            rng = derive_seeded_stream(spec.seed, "fault-truncate",
                                       spec.party, spec.boundary,
                                       spec.frame)
            cut = rng.randrange(1, len(frame))
            reason = (f"[fault injection] frame {label!r} truncated after "
                      f"{cut}/{len(frame)} bytes")
            hub.truncate_and_close(frame[:cut], reason)
            raise TransportClosedError(f"{hub.name}: {reason}")
        self.view.deliver(sender, receiver, label, wire)

    def try_collect(self, receiver: str, expected_label: str | None):
        return self.view.try_collect(receiver, expected_label)

    async def wait_message(self, want: str = "a message"):
        return await self.view.wait_message(want)
