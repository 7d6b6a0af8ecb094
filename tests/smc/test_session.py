"""Tests for the SMC session layer (keys, exchange, dispatch)."""

import pytest

from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.session import SessionError, SmcConfig, SmcSession


class TestSessionSetup:
    def test_key_exchange_is_counted(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        SmcSession(alice, bob, SmcConfig(key_seed=70))
        assert channel.stats.messages_for_phase("keys/paillier_pub") == 2
        assert channel.stats.total_bytes > 0

    def test_rsa_keys_only_for_ympp(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        SmcSession(alice, bob, SmcConfig(comparison="bitwise", key_seed=70))
        assert channel.stats.messages_for_phase("keys/rsa_pub") == 0

        channel2 = Channel()
        alice2, bob2 = make_party_pair(channel2, 1, 2)
        SmcSession(alice2, bob2, SmcConfig(comparison="ympp", key_seed=70))
        assert channel2.stats.messages_for_phase("keys/rsa_pub") == 2

    def test_distinct_party_keys(self):
        alice, bob = make_party_pair(Channel(), 1, 2)
        session = SmcSession(alice, bob, SmcConfig(key_seed=70))
        assert (session.paillier_keys("alice").public_key.n
                != session.paillier_keys("bob").public_key.n)

    def test_party_lookup(self):
        alice, bob = make_party_pair(Channel(), 1, 2)
        session = SmcSession(alice, bob, SmcConfig(key_seed=70))
        assert session.party("alice") is alice
        assert session.party("bob") is bob
        assert session.peer_of("alice") is bob
        assert session.peer_of("bob") is alice
        with pytest.raises(SessionError, match="unknown"):
            session.party("carol")

    def test_duplicate_names_rejected(self):
        channel = Channel(left_name="x", right_name="y")
        alice, bob = make_party_pair(channel, 1, 2)
        bob.endpoint.name = "x"  # sabotage
        with pytest.raises(SessionError, match="distinct"):
            SmcSession(alice, bob, SmcConfig(key_seed=70))

    def test_unknown_selection_method(self):
        alice, bob = make_party_pair(Channel(), 1, 2)
        session = SmcSession(alice, bob, SmcConfig(key_seed=70))
        from repro.smc.secret_sharing import SharedValues
        shares = SharedValues(u_values=(1,), v_values=(0,),
                              value_bound=2, mask_bound=2)
        with pytest.raises(SessionError, match="selection"):
            session.kth_smallest(alice, bob, shares, 1, method="bogosort")


class TestConfig:
    def test_mask_bound_scales(self):
        config = SmcConfig(mask_sigma=10)
        assert config.mask_bound(100) == 100 << 10

    def test_mask_bound_floor(self):
        config = SmcConfig(mask_sigma=4)
        assert config.mask_bound(0) == 2 << 4

    def test_defaults(self):
        config = SmcConfig()
        assert config.comparison == "bitwise"
        assert config.faithful_shared_r is False


class TestSessionProtocols:
    def test_multiplication_both_directions(self):
        alice, bob = make_party_pair(Channel(), 1, 2)
        session = SmcSession(alice, bob, SmcConfig(key_seed=71))
        assert session.multiplication(alice, 6, bob, 7, 1) == 43
        assert session.multiplication(bob, 6, alice, 7, 1) == 43

    def test_deterministic_under_seeds(self):
        def run() -> tuple:
            channel = Channel()
            alice, bob = make_party_pair(channel, 5, 6)
            session = SmcSession(alice, bob, SmcConfig(key_seed=72))
            session.multiplication(alice, 3, bob, 4, 9)
            return tuple(e.value for e in channel.transcript.entries
                         if isinstance(e.value, int))

        assert run() == run()


class TestKeyAnnouncements:
    """A sealed peer's key announcement is shape-checked before the
    digest pin: a bad shape fails naming the owner even when the
    manifest pins no digest."""

    BITS = 128

    def _good(self):
        from repro.crypto.keycache import (
            cached_dgk_keypair,
            cached_paillier_keypair,
        )
        paillier = cached_paillier_keypair(self.BITS, 992).public_key
        dgk = cached_dgk_keypair(self.BITS, 992).public_key
        return [paillier.n, paillier.g, dgk.n, dgk.g, dgk.h]

    def _adopt(self, announced, *, with_dgk=True, digest="0" * 64):
        from repro.smc.session import sealed_peer_context
        context = sealed_peer_context("peer", digest, with_dgk=with_dgk)
        SmcSession._adopt_peer_public("peer", context, announced, self.BITS)
        return context

    @pytest.mark.parametrize("shape", [
        "tuple", "paillier_only", "extra_part", "bool_n", "bool_g",
        "bool_dgk_h", "str_part", "float_part", "short_n", "long_n",
        "negative_n", "g_one", "g_zero", "g_n_squared", "short_dgk_n",
        "long_dgk_n", "dgk_g_one", "dgk_g_n", "dgk_h_zero", "dgk_h_n",
    ])
    @pytest.mark.parametrize("digest", ["0" * 64, None],
                             ids=["pinned", "legacy"])
    def test_malformed_shape_refused(self, shape, digest):
        n, g, dgk_n, dgk_g, dgk_h = announced = self._good()
        mutate = {
            "tuple": lambda: tuple(announced),
            "paillier_only": lambda: [n, g],
            "extra_part": lambda: announced + [1],
            "bool_n": lambda: [True, g, dgk_n, dgk_g, dgk_h],
            "bool_g": lambda: [n, True, dgk_n, dgk_g, dgk_h],
            "bool_dgk_h": lambda: [n, g, dgk_n, dgk_g, True],
            "str_part": lambda: [n, str(g), dgk_n, dgk_g, dgk_h],
            "float_part": lambda: [n, g, dgk_n, float(dgk_g), dgk_h],
            "short_n": lambda: [n >> 1, g % (n >> 1) ** 2, dgk_n, dgk_g,
                                dgk_h],
            "long_n": lambda: [n << 1, g, dgk_n, dgk_g, dgk_h],
            "negative_n": lambda: [-n, g, dgk_n, dgk_g, dgk_h],
            "g_one": lambda: [n, 1, dgk_n, dgk_g, dgk_h],
            "g_zero": lambda: [n, 0, dgk_n, dgk_g, dgk_h],
            "g_n_squared": lambda: [n, n * n, dgk_n, dgk_g, dgk_h],
            "short_dgk_n": lambda: [n, g, dgk_n >> 1, dgk_g >> 2, dgk_h >> 2],
            "long_dgk_n": lambda: [n, g, dgk_n << 1, dgk_g, dgk_h],
            "dgk_g_one": lambda: [n, g, dgk_n, 1, dgk_h],
            "dgk_g_n": lambda: [n, g, dgk_n, dgk_n, dgk_h],
            "dgk_h_zero": lambda: [n, g, dgk_n, dgk_g, 0],
            "dgk_h_n": lambda: [n, g, dgk_n, dgk_g, dgk_n],
        }[shape]()
        with pytest.raises(SessionError, match="malformed.*'peer'"):
            self._adopt(mutate, digest=digest)

    def test_legacy_bool_key_refused(self):
        """``[True, True]`` used to pass and run on n = 1."""
        with pytest.raises(SessionError, match="malformed.*'peer'"):
            self._adopt([True, True], with_dgk=False, digest=None)

    def test_well_formed_keys_adopted(self):
        announced = self._good()
        context = self._adopt(announced, digest=None)
        assert context.paillier.public_key.n == announced[0]
        assert context.dgk.public_key.h == announced[4]
        paillier_only = self._adopt(announced[:2], with_dgk=False,
                                    digest=None)
        assert paillier_only.dgk is None
