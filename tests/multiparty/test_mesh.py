"""Tests for the k-party session mesh."""

import pytest

from repro.multiparty.mesh import MeshError, PartyMesh, derive_pair_rng
from repro.smc.session import SmcConfig
from repro.net.channel import drive

CONFIG = SmcConfig(comparison="oracle", key_seed=200)


class TestMeshConstruction:
    def test_pairwise_sessions_exist(self):
        mesh = PartyMesh(["p0", "p1", "p2"], CONFIG, seeds=[1, 2, 3])
        for a, b in (("p0", "p1"), ("p0", "p2"), ("p1", "p2")):
            session = mesh.session_between(a, b)
            assert {session.alice.name, session.bob.name} == {a, b}

    def test_session_symmetric_lookup(self):
        mesh = PartyMesh(["p0", "p1"], CONFIG)
        assert mesh.session_between("p0", "p1") \
            is mesh.session_between("p1", "p0")

    def test_keys_shared_across_pairs(self):
        """One keypair per physical party, reused in every session."""
        mesh = PartyMesh(["p0", "p1", "p2"], CONFIG, seeds=[1, 2, 3])
        n_01 = mesh.session_between("p0", "p1").paillier_keys("p0").public_key.n
        n_02 = mesh.session_between("p0", "p2").paillier_keys("p0").public_key.n
        assert n_01 == n_02

    def test_peers_of(self):
        mesh = PartyMesh(["a", "b", "c"], CONFIG)
        assert mesh.peers_of("b") == ["a", "c"]
        with pytest.raises(MeshError, match="unknown"):
            mesh.peers_of("zz")

    def test_party_in_pair(self):
        mesh = PartyMesh(["a", "b"], CONFIG)
        party = mesh.party_in_pair("a", "b")
        assert party.name == "a"
        assert party.peer_name == "b"

    def test_pair_key_slot_cache_orders_like_names_index(self):
        """The routed-lookup hot path resolves slots from a dict; the
        ordering must equal the original names.index comparison for
        every pair, either argument order."""
        names = ["p3", "p0", "zz", "aa"]  # deliberately unsorted
        mesh = PartyMesh(names, CONFIG, seeds=[1, 2, 3, 4])
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                expected = ((a, b) if names.index(a) < names.index(b)
                            else (b, a))
                assert mesh._pair_key(a, b) == expected
                assert mesh._pair_key(b, a) == expected
        with pytest.raises(MeshError, match="unknown"):
            mesh._pair_key("p3", "nope")

    def test_validation(self):
        with pytest.raises(MeshError, match="two parties"):
            PartyMesh(["solo"], CONFIG)
        with pytest.raises(MeshError, match="duplicate"):
            PartyMesh(["x", "x"], CONFIG)
        with pytest.raises(MeshError, match="seeds"):
            PartyMesh(["a", "b"], CONFIG, seeds=[1])
        mesh = PartyMesh(["a", "b"], CONFIG)
        with pytest.raises(MeshError, match="itself"):
            mesh.session_between("a", "a")

    def test_per_pair_rng_substreams(self):
        """A party's coin tosses on each link come from a DEDICATED
        substream (seed + canonical pair key), so two pairwise sessions
        never race on one generator and the draw sequence of a pair is
        independent of when the party's other pairs run."""
        mesh = PartyMesh(["a", "b", "c"], CONFIG, seeds=[7, 8, 9])
        a_to_b = mesh.party_in_pair("a", "b")
        a_to_c = mesh.party_in_pair("a", "c")
        assert a_to_b.rng is not a_to_c.rng
        # Deterministic: a rebuilt mesh with the same seeds replays the
        # same per-pair streams, and draws on one pair do not perturb
        # another pair's stream.
        first_draws = (a_to_b.rng.random(), a_to_c.rng.random())
        rebuilt = PartyMesh(["a", "b", "c"], CONFIG, seeds=[7, 8, 9])
        rebuilt.party_in_pair("a", "c").rng.random()  # other pair first
        assert rebuilt.party_in_pair("a", "b").rng.random() \
            == first_draws[0]
        # Distinct parties on the same pair get distinct streams.
        b_to_a = mesh.party_in_pair("b", "a")
        assert b_to_a.rng.random() != first_draws[0]

    def test_building_a_mesh_draws_no_coin(self):
        """Generating the keys and exchanging them on every pair leaves
        each pair's parties with the RNGs derive_pair_rng gave them."""
        mesh = PartyMesh(["a", "b", "c"], SmcConfig(key_seed=202),
                         seeds=[7, 8, 9])
        seeds = {"a": 7, "b": 8, "c": 9}
        for left, right in (("a", "b"), ("a", "c"), ("b", "c")):
            for name, peer in ((left, right), (right, left)):
                fresh = derive_pair_rng(seeds[name], name, left, right)
                assert mesh.party_in_pair(name, peer).rng.getstate() \
                    == fresh.getstate()

    def test_merged_stats(self):
        mesh = PartyMesh(["a", "b", "c"], CONFIG, seeds=[1, 2, 3])
        baseline = mesh.merged_stats().total_messages  # key exchange
        assert baseline == 6  # one Paillier pubkey each way, per pair
        drive(mesh.party_in_pair("a", "b").send("x", 123))
        drive(mesh.party_in_pair("a", "c").send("y", 456))
        merged = mesh.merged_stats()
        assert merged.total_messages == baseline + 2
        assert merged.messages_by_label["x"] == 1
        assert mesh.pair_stats("a", "b").messages_by_label["x"] == 1

    def test_protocols_run_over_mesh_sessions(self):
        mesh = PartyMesh(["a", "b", "c"], SmcConfig(key_seed=201),
                         seeds=[1, 2, 3])
        for peer in ("b", "c"):
            session = mesh.session_between("a", peer)
            receiver = mesh.party_in_pair("a", peer)
            masker = mesh.party_in_pair(peer, "a")
            assert drive(session.multiplication(receiver, 6, masker, 7,
                                                1)) == 43


class TestPairStreams:
    def test_one_stream_per_driver_and_query(self):
        mesh = PartyMesh(["a", "b", "c"], CONFIG, seeds=[1, 2, 3])
        stream = mesh.stream("b", "a", 0)
        assert (stream.driver, stream.query) == ("b", 0)
        assert set(stream.parties) == {"a", "b"}
        assert stream is mesh.stream("b", "a", 0)
        assert stream is not mesh.stream("a", "b", 0)
        assert stream is not mesh.stream("b", "a", 1)
        assert stream.channel is not mesh.stream("a", "b", 0).channel
        with pytest.raises(MeshError, match="itself"):
            mesh.stream("a", "a", 0)

    def test_streams_report_in_pass_then_point_order(self):
        """Streams are built on first use, in any order; the pair's
        accounting lists them pass by pass, each pass in point order."""
        mesh = PartyMesh(["a", "b"], CONFIG, seeds=[1, 2])
        for driver, query in (("b", 1), ("a", 1), ("b", 0), ("a", 0)):
            stream = mesh.stream(driver, "a" if driver == "b" else "b",
                                 query)
            drive(stream.parties[driver].send(f"{driver}{query}", query))
        labels = [entry.label for entry
                  in mesh.pair_transcripts()[("a", "b")].entries]
        assert labels == ["keys/paillier_pub", "keys/paillier_pub",
                          "a0", "a1", "b0", "b1"]

    def test_stream_coins_are_keyed_by_driver(self):
        """A party's coins on a pair differ per stream and from the key
        exchange's: the two passes over a pair and the queries of one
        pass never reuse a mask or blind, and each stream's draws are
        reproducible alone."""
        mesh = PartyMesh(["a", "b", "c"], CONFIG, seeds=[7, 8, 9])
        draws = {
            "key": mesh.party_in_pair("a", "b").rng.random(),
            "a drives": mesh.stream("a", "b", 0).parties["a"].rng.random(),
            "a drives, point 1":
                mesh.stream("a", "b", 1).parties["a"].rng.random(),
            "b drives": mesh.stream("b", "a", 0).parties["a"].rng.random(),
        }
        assert len(set(draws.values())) == 4
        rebuilt = PartyMesh(["a", "b", "c"], CONFIG, seeds=[7, 8, 9])
        assert rebuilt.stream("b", "a", 0).parties["a"].rng.random() \
            == draws["b drives"]

    def test_streams_reuse_the_pair_keys_with_their_own_state(self):
        """A stream shares the pair's keys and owns the rest: its
        parties' RNGs, its session and its comparison backend."""
        mesh = PartyMesh(["a", "b"], CONFIG, seeds=[1, 2])
        key_session = mesh.session_between("a", "b")
        streams = [mesh.stream(driver, peer, query)
                   for driver, peer, query in (("a", "b", 0),
                                               ("b", "a", 0),
                                               ("b", "a", 1))]
        for stream in streams:
            assert stream.session.paillier_keys("a") \
                is key_session.paillier_keys("a")
        owned = [(stream.parties["a"].rng, stream.parties["b"].rng,
                  stream.session, stream.session.comparison_backend)
                 for stream in streams]
        owned.append((key_session.alice.rng, key_session.bob.rng,
                      key_session, key_session.comparison_backend))
        for column in zip(*owned):
            assert len({id(state) for state in column}) == len(owned)
        # The keys crossed once, on the key-exchange channel.
        assert mesh.merged_stats().messages_by_label == {
            "keys/paillier_pub": 2}

    def test_building_a_stream_draws_no_coin(self):
        """A new stream's parties hold their RNGs in the state
        derive_pair_rng gave them: coins are drawn only by protocol
        steps."""
        mesh = PartyMesh(["a", "b"], CONFIG, seeds=[1, 2])
        stream = mesh.stream("b", "a", 1)
        for name, seed in (("a", 1), ("b", 2)):
            fresh = derive_pair_rng(seed, name, "a", "b", driver="b",
                                    query=1)
            assert stream.parties[name].rng.getstate() == fresh.getstate()

    def test_pool_report_is_an_empty_stub(self):
        """The layered benchmark's harness reads ``pool_report()`` on
        every in-process mesh; with no pools it is empty, with streams
        built or not."""
        mesh = PartyMesh(["a", "b", "c"], CONFIG, seeds=[1, 2, 3])
        assert mesh.pool_report() == {}
        mesh.stream("a", "b", 0)
        mesh.stream("c", "a", 1)
        assert mesh.pool_report() == {}


class TestKeyExchangeAccounting:
    """Per pair, the key exchange is the left party's announcement, then
    the right party's -- whether both share the pair's key channel (in
    process) or each has its own channel (a daemon, where the two cross
    the link at the same time)."""

    @staticmethod
    def _reference(config, left, right, slots):
        from repro.net.channel import Channel
        from repro.smc.session import FullKeyProvider

        provider = FullKeyProvider(config)
        channel = Channel(left, right)
        for endpoint, name in ((channel.left, left), (channel.right, right)):
            context = provider.context_for(name, slots[name])
            public, dgk = context.paillier.public_key, context.dgk.public_key
            drive(endpoint.send("keys/paillier_pub",
                                [public.n, public.g, dgk.n, dgk.g, dgk.h]))
        return channel

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_each_pair_records_left_then_right(self, k):
        from repro.multiparty.mesh import link_accounting
        from repro.net.channel import Channel
        from repro.net.party import Party
        from repro.net.transcript import transcript_digest
        from repro.smc.session import FullKeyProvider, announce_public_keys

        config = SmcConfig(paillier_bits=128, key_seed=202)
        names = [f"p{slot}" for slot in range(k)]
        slots = {name: slot for slot, name in enumerate(names)}
        mesh = PartyMesh(names, config, seeds=list(range(k)))
        provider = FullKeyProvider(config)
        for index, left in enumerate(names):
            for right in names[index + 1:]:
                reference = self._reference(config, left, right, slots)
                key_channel = mesh.party_in_pair(left, right).endpoint
                assert transcript_digest(key_channel.transcript) \
                    == transcript_digest(reference.transcript)
                assert key_channel.stats.snapshot() \
                    == reference.stats.snapshot()
                assert key_channel.stats.rounds == 2
                # The daemon's layout: one channel per announcer,
                # concatenated left first.
                announcements = []
                for name in (left, right):
                    channel = Channel(left, right)
                    endpoint = (channel.left if name == left
                                else channel.right)
                    drive(announce_public_keys(Party(endpoint),
                                               provider.context_for(name,
                                                              slots[name])))
                    announcements.append(channel)
                stats, transcript = link_accounting(announcements)
                assert transcript_digest(transcript) \
                    == transcript_digest(reference.transcript)
                assert stats.snapshot() == reference.stats.snapshot()
