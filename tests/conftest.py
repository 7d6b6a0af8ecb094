"""Shared fixtures: channels, parties, sessions, cached keys.

Conventions used across the suite:

- Crypto tests use 256-bit Paillier / 512-bit RSA keys via the
  deterministic key cache (``key_seed``), so key generation cost is paid
  once per session, not per test.
- Clustering-layer tests that are not about cryptography use the
  ``oracle`` comparison backend (the ideal functionality), which keeps
  whole-protocol runs fast while exercising identical control flow.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.session import SmcConfig, SmcSession

# Link-auth test matrix: setting REPRO_TEST_PSK re-runs the socket
# suite with every link authenticated under that PSK (CI runs the
# `sockets` smoke both ways).  The knob injects a *default* psk into
# the two runtime entry points tests use -- orchestrate_run and
# DaemonFleet -- so the whole existing matrix exercises MAC'd frames
# without each test growing an auth parameter; tests that pass an
# explicit psk (including the wrong-PSK rejection tests) keep it.
# orchestrate_run hands its own psk to its process fleets explicitly,
# so it is patched on its own.
_matrix_psk = os.environ.get("REPRO_TEST_PSK")
if _matrix_psk:
    import repro.runtime.client as _client_module
    import repro.runtime.orchestrator as _orchestrator_module

    _plain_orchestrate_run = _orchestrator_module.orchestrate_run

    def _orchestrate_run_with_auth(*args, **kwargs):
        kwargs.setdefault("psk", _matrix_psk)
        return _plain_orchestrate_run(*args, **kwargs)

    _orchestrator_module.orchestrate_run = _orchestrate_run_with_auth

    _plain_fleet_init = _client_module.DaemonFleet.__init__

    def _fleet_init_with_auth(self, names, **kwargs):
        kwargs.setdefault("psk", _matrix_psk)
        _plain_fleet_init(self, names, **kwargs)

    _client_module.DaemonFleet.__init__ = _fleet_init_with_auth


@pytest.fixture
def channel() -> Channel:
    return Channel()


@pytest.fixture
def parties(channel):
    return make_party_pair(channel, alice_seed=101, bob_seed=202)


@pytest.fixture
def bitwise_config() -> SmcConfig:
    return SmcConfig(paillier_bits=256, comparison="bitwise", key_seed=11)


@pytest.fixture
def ympp_config() -> SmcConfig:
    return SmcConfig(paillier_bits=256, rsa_bits=512, comparison="ympp",
                     key_seed=12)


@pytest.fixture
def oracle_config() -> SmcConfig:
    return SmcConfig(paillier_bits=256, comparison="oracle", key_seed=13)


@pytest.fixture
def bitwise_session(parties, bitwise_config) -> SmcSession:
    alice, bob = parties
    return SmcSession(alice, bob, bitwise_config)


@pytest.fixture
def ympp_session(parties, ympp_config) -> SmcSession:
    alice, bob = parties
    return SmcSession(alice, bob, ympp_config)


@pytest.fixture
def oracle_session(parties, oracle_config) -> SmcSession:
    alice, bob = parties
    return SmcSession(alice, bob, oracle_config)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xDB5CA)


@pytest.fixture
def key_work(monkeypatch) -> dict[str, list]:
    """From here on, the modulus of the key under which each Paillier
    batch decryption, each DGK bit encryption and each fresh Paillier
    randomness factor ran -- which names the party that ran it, in this
    process or in a thread-mode daemon fleet's -- and, parallel to
    ``factors``, the RNG that drew each factor (``factor_rngs``)."""
    from repro.crypto.engine import ModexpEngine
    from repro.crypto.paillier import PaillierPublicKey
    from repro.smc import bitwise_comparison

    work = {"decrypt": [], "dgk_bits": [], "factors": [], "factor_rngs": []}
    decrypt = ModexpEngine.decrypt_raw_batch
    encrypted_bits = bitwise_comparison._encrypted_bits
    fresh_factor = PaillierPublicKey.fresh_factor

    def decrypting(engine, private_key, values):
        work["decrypt"].append(private_key.public_key.n)
        return decrypt(engine, private_key, values)

    def encrypting(keypair, x, bits, rng):
        work["dgk_bits"].append(keypair.public_key.n)
        return encrypted_bits(keypair, x, bits, rng)

    def computing(public, rng):
        work["factors"].append(public.n)
        work["factor_rngs"].append(rng)
        return fresh_factor(public, rng)

    monkeypatch.setattr(ModexpEngine, "decrypt_raw_batch", decrypting)
    monkeypatch.setattr(bitwise_comparison, "_encrypted_bits", encrypting)
    monkeypatch.setattr(PaillierPublicKey, "fresh_factor", computing)
    return work
