"""A daemon query runs once: byte-identical frames, and every Paillier
randomness factor, decryption and DGK bit encryption computed once.

The queries run on a :class:`~repro.runtime.async_pass.PairRuntime` in
this process, hosting alice only.  Its link withholds every one of
bob's frames until the query awaits it, so each query suspends at every
frame of bob's -- the path a daemon takes on every frame that has not
arrived yet -- and resumes where it stopped.
"""

import asyncio
from collections import Counter

import pytest

from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.net.transcript import transcript_digest
from repro.obs.trace import NULL_SPAN
from repro.runtime.async_pass import PairRuntime
from repro.runtime.mirror import MirrorChannel
from repro.smc.session import FullKeyProvider, SmcConfig, SmcSession

SMC = SmcConfig(paillier_bits=128, comparison="bitwise", key_seed=873)
SEEDS = (61, 62)
BATCHES = (("q1", [5, 7]), ("q2", [-2, 4]))
BETAS = [[1, 2], [3, -1]]


def make_session(channel) -> SmcSession:
    """A session over ``channel`` on both parties' full keys, already
    exchanged (the daemons' preset contexts)."""
    alice, bob = make_party_pair(channel, *SEEDS)
    provider = FullKeyProvider(SMC)
    return SmcSession(alice, bob, SMC, preset_contexts={
        "alice": provider.context_for("alice", 0),
        "bob": provider.context_for("bob", 1)})


async def region_step(session: SmcSession, stepper: str, label: str,
                      alpha: list) -> None:
    """One HDP-shaped step keyed by ``stepper``: it encrypts ``alpha``
    (two factors under its key), the peer answers with both blinded
    cross sums packed into one reply ciphertext (one factor under the
    stepper's key), the stepper decrypts it in one batch, and an
    amortized comparison under the stepper's DGK key -- one bit
    encryption of its threshold -- tells it which of the peer's sums
    are at most 10."""
    party, peer = session.party(stepper), session.peer_of(stepper)
    sums = await session.masked_dot_terms_batch(
        party, alpha, peer, BETAS, [0, 0], value_bound=100,
        blind_bound=1 << 20, label=f"{label}/sums")
    await session.compare_leq_batch(
        peer, sums, party, [10, 10], lo=-100, hi=100, reveal_to="b",
        amortize=True, label=f"{label}/cmp")


async def query(session: SmcSession, first: str, batch) -> None:
    """One query: ``first``'s step, then its peer's -- so each party
    decrypts once and encrypts its DGK bits once."""
    label, alpha = batch
    for stepper in (first, session.peer_of(first).name):
        await region_step(session, stepper, f"{label}/{stepper}", alpha)


class WithheldLink:
    """Both ends of alice's link: the transport her channel sends on and
    the queue it awaits.  No frame of bob's has arrived when the query
    looks for it; each arrives once the query has suspended for it."""

    def __init__(self, frames):
        self.frames = iter(frames)
        self.sent = []
        self.waits = 0

    def deliver(self, sender, receiver, label, wire):
        self.sent.append((label, wire))

    def try_collect(self, receiver, expected_label):
        return None

    async def wait_message(self, want):
        self.waits += 1
        await asyncio.sleep(0)
        return next(self.frames)


class Attempts:
    """A peer-query span that counts the attempt spans opened under
    it."""

    def __init__(self):
        self.count = 0

    def child(self, kind, name, **attrs):
        assert kind == "attempt"
        self.count += 1
        return NULL_SPAN


def reference_run(first: str) -> Channel:
    channel = Channel()
    session = make_session(channel)
    for batch in BATCHES:
        drive(query(session, first, batch))
    return channel


def bob_frames(reference: Channel) -> list:
    return [(entry.label, entry.wire)
            for entry in reference.transcript.entries
            if entry.sender == "bob"]


def withheld_runtime(reference: Channel):
    """Alice's runtime and session, whose link hands over bob's frames
    of the ``reference`` run one awaited frame at a time."""
    link = WithheldLink(bob_frames(reference))
    channel = MirrorChannel("alice", "bob", "alice", link)
    return PairRuntime(channel), make_session(channel), link


def run_queries(runtime, session, first: str) -> list[int]:
    """Every batch as one query on ``runtime``; the attempts each
    query opened."""
    attempts = []
    for batch in BATCHES:
        span = Attempts()
        asyncio.run(runtime.run(
            lambda _ledger, batch=batch: query(session, first, batch),
            span=span))
        attempts.append(span.count)
    return attempts


def assert_same_frames(runtime, link, reference: Channel) -> None:
    assert transcript_digest(runtime.channel.transcript) \
        == transcript_digest(reference.transcript)
    assert link.sent == [(entry.label, entry.wire)
                         for entry in reference.transcript.entries
                         if entry.sender == "alice"]
    # Every frame of bob's was awaited, once.
    assert link.waits == len(bob_frames(reference))


def forget(key_work: dict) -> None:
    """Drop the key work counted so far (the reference run's)."""
    for moduli in key_work.values():
        moduli.clear()


def alice_keys(session: SmcSession) -> tuple[int, int]:
    """The moduli of alice's Paillier and DGK keys."""
    context = session._contexts["alice"]
    return context.paillier.public_key.n, context.dgk.public_key.n


@pytest.mark.parametrize("first", ["alice", "bob"],
                         ids=["holder", "receiver"])
def test_a_query_runs_once_and_computes_nothing_twice(key_work, first):
    reference = reference_run(first)
    runtime, session, link = withheld_runtime(reference)
    forget(key_work)

    assert run_queries(runtime, session, first) == [1] * len(BATCHES)
    paillier, dgk = alice_keys(session)
    # Per query alice opens one packed reply ciphertext, once.
    assert key_work["decrypt"] == [(paillier, 1)] * len(BATCHES)
    assert key_work["dgk_bits"] == [dgk] * len(BATCHES)
    # Per query alice encrypts her alpha under her key (two factors) and
    # her packed blinds under bob's (one factor), from her own coins.
    bob_paillier = session.paillier_keys("bob").public_key.n
    assert Counter(key_work["factors"]) == {paillier: 4, bob_paillier: 2}
    assert key_work["factor_rngs"] == [session.alice.rng] * 6
    assert_same_frames(runtime, link, reference)
