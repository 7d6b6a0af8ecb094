"""Failure injection: the library must fail loudly, never silently.

Covers protocol desynchronization, plaintext-space overflow, domain
violations, tampered ciphertexts, and configuration errors.
"""

import random

import pytest

from repro.core.config import ConfigError, ProtocolConfig
from repro.crypto.encoding import EncodingError, SignedEncoder
from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import PaillierError
from repro.net.channel import Channel, ProtocolDesyncError, drive
from repro.net.party import make_party_pair
from repro.net.serialization import SerializationError, serialize_message
from repro.smc.comparison import ComparisonError
from repro.smc.multiplication import MultiplicationError, secure_multiplication
from repro.smc.session import SmcConfig, SmcSession

KEYS = cached_paillier_keypair(256, 170)


class TestProtocolDesync:
    def test_out_of_order_receive_detected(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        drive(alice.send("phase_one", 1))
        drive(alice.send("phase_two", 2))
        with pytest.raises(ProtocolDesyncError, match="expected"):
            bob.receive("phase_two")

    def test_missing_message_detected(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        with pytest.raises(ProtocolDesyncError, match="empty"):
            bob.receive("never_sent")

    def test_double_receive_detected(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        drive(alice.send("once", 1))
        bob.receive("once")
        with pytest.raises(ProtocolDesyncError):
            bob.receive("once")


class TestOverflowInjection:
    def test_multiplication_overflow(self):
        alice, bob = make_party_pair(Channel(), 1, 2)
        big = 1 << 140
        with pytest.raises(MultiplicationError, match="capacity"):
            drive(secure_multiplication(alice, big, bob, big, 0, KEYS))

    def test_signed_encoder_overflow(self):
        encoder = SignedEncoder(KEYS.public_key.n)
        with pytest.raises(EncodingError, match="capacity"):
            encoder.encode(KEYS.public_key.n)

    def test_paillier_plaintext_overflow(self):
        with pytest.raises(PaillierError, match="outside"):
            KEYS.public_key.raw_encrypt(KEYS.public_key.n + 5, 3)


class TestTamperedData:
    def test_tampered_ciphertext_decrypts_to_garbage_not_crash(self):
        """Semi-honest model: tampering is out of scope, but the library
        must at least stay well-defined under bit flips."""
        cipher = KEYS.public_key.encrypt(42, random.Random(1))
        from repro.crypto.paillier import PaillierCiphertext
        tampered = PaillierCiphertext(KEYS.public_key, cipher.value ^ 1)
        result = KEYS.private_key.decrypt(tampered)
        assert 0 <= result < KEYS.public_key.n

    def test_truncated_wire_data(self):
        wire = serialize_message([1, 2, 3])
        from repro.net.serialization import deserialize_message
        with pytest.raises(SerializationError, match="truncated"):
            deserialize_message(wire[:-2])


class TestConfigurationErrors:
    def test_bad_eps(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(eps=-1.0, min_pts=3)

    def test_bad_comparison_backend(self):
        alice, bob = make_party_pair(Channel(), 1, 2)
        with pytest.raises(ComparisonError, match="unknown"):
            SmcSession(alice, bob,
                       SmcConfig(comparison="nonexistent", key_seed=171))

    def test_comparison_domain_violation(self):
        alice, bob = make_party_pair(Channel(), 1, 2)
        session = SmcSession(alice, bob, SmcConfig(key_seed=171))
        with pytest.raises(ComparisonError, match="outside"):
            drive(session.compare_leq(alice, 100, bob, 5, lo=0, hi=50))

    def test_ympp_domain_too_large_for_keys(self):
        """YMPP with a domain too big for the RSA modulus must refuse."""
        from repro.crypto.keycache import cached_rsa_keypair
        from repro.smc.millionaires import YmppError, ympp_less_than
        small_keys = cached_rsa_keypair(64, 172)
        alice, bob = make_party_pair(Channel(), 1, 2)
        with pytest.raises(YmppError, match="too small"):
            drive(ympp_less_than(alice, 1, bob, 2, 2 ** 62, small_keys))


class TestDeterminismUnderInjection:
    def test_protocol_failure_leaves_channel_accountable(self):
        """Bytes sent before a failure stay counted -- no accounting reset."""
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        session = SmcSession(alice, bob, SmcConfig(key_seed=173))
        baseline = channel.stats.total_bytes
        assert baseline > 0  # key exchange
        with pytest.raises(ComparisonError):
            drive(session.compare_leq(alice, 999, bob, 1, lo=0, hi=10))
        assert channel.stats.total_bytes == baseline
