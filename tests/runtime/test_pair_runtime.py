"""A restarted daemon query: byte-identical frames, and every Paillier
randomness factor computed once.

The queries run on a :class:`~repro.runtime.async_pass.PairRuntime` in
this process, hosting alice only.  Its link withholds every one of bob's
frames until an attempt parks for it, so the queries restart, some after
alice has drawn pool factors -- the path a daemon takes on every frame
that has not arrived yet.
"""

import asyncio

import pytest

from repro.crypto.paillier import PaillierPublicKey
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.net.transcript import transcript_digest
from repro.runtime.async_pass import PairRuntime, RestartableMirrorChannel
from repro.smc.session import FullKeyProvider, SmcConfig, SmcSession

SMC = SmcConfig(paillier_bits=128, comparison="bitwise", key_seed=873)
SEEDS = (61, 62)
BATCHES = (("q1", [5, 7]), ("q2", [-2, 4]))


def make_session(channel) -> SmcSession:
    """A session over ``channel`` on both parties' full keys, already
    exchanged (the daemons' preset contexts)."""
    alice, bob = make_party_pair(channel, *SEEDS)
    provider = FullKeyProvider(SMC)
    return SmcSession(alice, bob, SMC, preset_contexts={
        "alice": provider.context_for("alice", 0),
        "bob": provider.context_for("bob", 1)})


def cross_sum_batch(session: SmcSession, holder: str, batch) -> list:
    """One batched cross-term exchange with ``holder`` holding
    ``alpha``: the holder encrypts it (two pool factors under its key),
    and the receiver answers with one fresh encryption per beta (two
    pool factors under the holder's key)."""
    label, alpha = batch
    return session.masked_dot_terms_batch(
        session.party(holder), alpha, session.peer_of(holder),
        [[1, 2], [3, -1]], [0, 0], blind_bound=1 << 20, label=label)


def two_cross_sum_batches(session: SmcSession, holder: str = "alice"
                          ) -> list:
    return [cross_sum_batch(session, holder, batch) for batch in BATCHES]


class WithheldLink:
    """Both ends of alice's link: the transport her channel sends on and
    the link a parked attempt waits on.  No frame of bob's has arrived
    when an attempt looks for it; each arrives once an attempt parks."""

    def __init__(self, frames):
        self.frames = iter(frames)
        self.sent = []

    def deliver(self, sender, receiver, label, wire):
        self.sent.append((label, wire))

    def try_collect(self, receiver, expected_label):
        return None

    async def wait_message(self, want):
        return next(self.frames)


def withheld_runtime(reference: Channel) -> tuple[PairRuntime,
                                                   WithheldLink]:
    """Alice's runtime, whose link hands over bob's frames of the
    ``reference`` run one parked attempt at a time."""
    link = WithheldLink([(entry.label, entry.wire)
                         for entry in reference.transcript.entries
                         if entry.sender == "bob"])
    channel = RestartableMirrorChannel("alice", "bob", "alice", link)
    runtime = PairRuntime(channel, link)
    runtime.session = make_session(channel)
    return runtime, link


def count_fresh_factors(monkeypatch) -> list:
    """Every factor computed from here on, by any pool or encryption."""
    computed = []
    fresh_factor = PaillierPublicKey.fresh_factor

    def counting(public, rng):
        computed.append(public)
        return fresh_factor(public, rng)

    monkeypatch.setattr(PaillierPublicKey, "fresh_factor", counting)
    return computed


def assert_same_frames(runtime, link, reference: Channel) -> None:
    assert transcript_digest(runtime.channel.transcript) \
        == transcript_digest(reference.transcript)
    assert link.sent == [(entry.label, entry.wire)
                         for entry in reference.transcript.entries
                         if entry.sender == "alice"]


def consumed(session: SmcSession) -> int:
    return sum(report["consumed"]
               for report in session.pool_report().values())


# As the holder alice's three attempts draw 2, 4 and 4 factors under her
# key and compute 2, 2, 0.  As the receiver her first attempt parks
# before it draws anything, and her five attempts draw 0, 2, 2, 4 and 4
# factors under bob's key and compute 0, 2, 0, 2, 0.
@pytest.mark.parametrize("holder,restarts,pool", [
    ("alice", 2, ("alice", "alice")),
    ("bob", 4, ("alice", "bob")),
], ids=["holder", "receiver"])
def test_a_restarted_query_computes_no_factor_twice(monkeypatch, holder,
                                                    restarts, pool):
    reference = Channel()
    two_cross_sum_batches(make_session(reference), holder)
    runtime, link = withheld_runtime(reference)
    computed = count_fresh_factors(monkeypatch)
    asyncio.run(runtime.run(
        lambda _ledger: two_cross_sum_batches(runtime.session, holder)))

    assert runtime.restarts == restarts
    assert runtime.session.pool_report()[pool] == {
        "pregenerated": 0, "consumed": 4, "misses": 4, "available": 0}
    assert consumed(runtime.session) == len(computed) == 4
    assert_same_frames(runtime, link, reference)


def test_each_query_gives_back_only_its_own_draws(monkeypatch):
    """Two queries, one batch each: the second query's restart hands
    back only its own factors, never the first query's."""
    reference = Channel()
    two_cross_sum_batches(make_session(reference))
    runtime, link = withheld_runtime(reference)
    computed = count_fresh_factors(monkeypatch)
    for batch in BATCHES:
        asyncio.run(runtime.run(
            lambda _ledger, batch=batch: cross_sum_batch(
                runtime.session, "alice", batch)))

    assert runtime.restarts == 2
    assert consumed(runtime.session) == len(computed) == 4
    assert_same_frames(runtime, link, reference)


@pytest.mark.parametrize("prefill", [2, 5])
def test_a_restart_hands_back_prefilled_factors_in_order(monkeypatch,
                                                         prefill):
    """Factors a pool pregenerated and an aborted attempt drew go back
    ahead of the ones still queued: the frames are the unfilled run's,
    and only the factors past the prefill are computed online."""
    reference = Channel()
    two_cross_sum_batches(make_session(reference))
    runtime, link = withheld_runtime(reference)
    computed = count_fresh_factors(monkeypatch)
    runtime.session.precompute_pools({("alice", "alice"): prefill})
    asyncio.run(runtime.run(
        lambda _ledger: two_cross_sum_batches(runtime.session)))

    report = runtime.session.pool_report()[("alice", "alice")]
    assert report == {"pregenerated": prefill, "consumed": 4,
                      "misses": max(0, 4 - prefill),
                      "available": max(0, prefill - 4)}
    assert len(computed) == prefill + report["misses"]
    assert_same_frames(runtime, link, reference)
