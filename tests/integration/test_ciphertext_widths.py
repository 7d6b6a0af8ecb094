"""Every ciphertext list a protocol sends travels at its key's width.

A ciphertext list sent as the serializer's ``W`` list costs exactly its
modulus's bytes per ciphertext, whatever the coins.  A send site that
builds a plain list instead still runs correctly -- it only costs six
header bytes a ciphertext more, varying with the leading bytes -- so
only a guard catches it: this module decodes every transcript entry of
in-process runs of each protocol and checks that

- every entry whose label carries ciphertexts holds key-width lists, a
  DGK ciphertext list at the DGK key's width and a Paillier one at
  ``n^2``'s;
- no other entry holds a fixed-width list, or a plain list with an
  integer as wide as a ciphertext (key announcements aside).

The Section 5 comparisons are also held to their length: each travels
at its declared gap's width, not at the masked interval's.
"""

import random

import pytest

from repro.core.arbitrary import run_arbitrary_dbscan
from repro.core.config import ProtocolConfig
from repro.core.distance import PeerCipherCache, hdp_within_eps_cached
from repro.core.enhanced import run_enhanced_horizontal_dbscan
from repro.core.horizontal import run_horizontal_dbscan
from repro.core.vertical import run_vertical_dbscan
from repro.data.dataset import Dataset
from repro.data.partitioning import (
    HorizontalPartition,
    partition_arbitrary,
    partition_vertical,
)
from repro.data.quantize import squared_distance_bound
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.net.serialization import FixedWidthList
from repro.smc.session import SmcConfig, SmcSession

KEY_BITS = 256
#: Bytes per ciphertext at 256-bit keys: a DGK ciphertext lives mod n,
#: a Paillier one mod n^2.
WIDTHS = {"dgk": KEY_BITS // 8, "paillier": 2 * KEY_BITS // 8}
#: The last label component of every message that carries ciphertexts.
CIPHERTEXT_LABELS = {
    "x_bits": "dgk",
    "witnesses": "dgk",
    "encrypted_vector": "paillier",
    "masked_terms": "paillier",
    "encrypted_alpha": "paillier",
    "blinded_sums": "paillier",
    "masked_products": "paillier",
    "coords": "paillier",
    "masked_sums": "paillier",
}
#: No plain integer a protocol sends in a list comes near this wide
#: (masks and blinded sums have tens of bits); a 256-bit key's
#: ciphertexts are wider except with probability 2^-128.
PLAIN_BITS = KEY_BITS // 2

POINTS = [(0, 0), (10, 0), (0, 10), (300, 300), (310, 300), (320, 310)]


def _config(**kwargs) -> ProtocolConfig:
    return ProtocolConfig(
        eps=2.0, min_pts=3, scale=10,
        smc=SmcConfig(paillier_bits=KEY_BITS, key_seed=270, mask_sigma=8),
        alice_seed=1, bob_seed=2, **kwargs)


def _horizontal() -> HorizontalPartition:
    """Both parties' points in both clusters, so every pass queries."""
    return HorizontalPartition(alice_points=tuple(POINTS[0::2]),
                               bob_points=tuple(POINTS[1::2]))


def _lists(value):
    """Every list inside a decoded message, outermost first."""
    if isinstance(value, list):
        yield value
        for element in value:
            yield from _lists(element)


def _check_entry(entry) -> None:
    """Check one transcript entry's lists against its label."""
    kind = CIPHERTEXT_LABELS.get(entry.label.rsplit("/", 1)[-1])
    fixed = 0
    for values in _lists(entry.value):
        if isinstance(values, FixedWidthList):
            assert kind is not None, (
                f"{entry.label}: a fixed-width list under a label the "
                "guard does not know carries ciphertexts")
            assert values.width == WIDTHS[kind], entry.label
            fixed += 1
        elif not entry.label.startswith("keys/"):
            wide = [element for element in values
                    if isinstance(element, int)
                    and element.bit_length() > PLAIN_BITS]
            assert not wide, (
                f"{entry.label}: a plain list holds ciphertext-wide "
                "integers; send it at its key's width")
    if kind is not None:
        assert fixed, f"{entry.label}: no key-width ciphertext list"


def _check_transcript(transcript, *labels) -> None:
    """Check every entry, and that each of ``labels`` (ciphertext label
    suffixes) occurs, so a run cannot pass by skipping a send site."""
    for entry in transcript.entries:
        _check_entry(entry)
    seen = {entry.label.rsplit("/", 1)[-1] for entry in transcript.entries}
    assert set(labels) <= seen, set(labels) - seen


class TestCiphertextsTravelAtKeyWidth:
    def test_two_party_horizontal(self):
        channel = Channel()
        run_horizontal_dbscan(_horizontal(), _config(), channel=channel)
        _check_transcript(channel.transcript, "encrypted_alpha",
                          "blinded_sums", "x_bits", "witnesses")

    def test_cached_hdp(self):
        channel = Channel()
        run_horizontal_dbscan(_horizontal(),
                              _config(cache_peer_ciphertexts=True),
                              channel=channel)
        _check_transcript(channel.transcript, "coords", "masked_sums",
                          "x_bits", "witnesses")

    def test_per_point_cached_hdp(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 3, 4)
        session = SmcSession(alice, bob, _config().smc)
        cache = PeerCipherCache()
        for peer_point in ((3, 4), (30, 40)):
            drive(hdp_within_eps_cached(session, alice, (0, 0), bob,
                                        peer_point,
                                        0, cache, 25, 8 * 200 * 200))
        _check_transcript(channel.transcript, "coords", "masked_terms",
                          "x_bits", "witnesses")

    def test_vertical(self):
        channel = Channel()
        run_vertical_dbscan(
            partition_vertical(Dataset.from_points(POINTS), 1), _config(),
            channel=channel)
        _check_transcript(channel.transcript, "x_bits", "witnesses")

    def test_arbitrary(self):
        channel = Channel()
        partition = partition_arbitrary(Dataset.from_points(POINTS),
                                        random.Random(5),
                                        shared_fraction=1.0)
        run_arbitrary_dbscan(partition, _config(), channel=channel)
        _check_transcript(channel.transcript, "encrypted_vector",
                          "masked_terms", "x_bits", "witnesses")

    @pytest.mark.parametrize("selection", ["scan", "quickselect"])
    def test_enhanced(self, selection):
        channel = Channel()
        run_enhanced_horizontal_dbscan(_horizontal(),
                                       _config(selection=selection),
                                       channel=channel)
        _check_transcript(channel.transcript, "encrypted_alpha",
                          "masked_products", "x_bits", "witnesses")

    @pytest.mark.parametrize("selection", ["scan", "quickselect"])
    def test_enhanced_comparisons_travel_at_the_gap_width(self, selection):
        """Every Section 5 comparison pays for its gap, not for the
        masked interval: a selection step's sides differ by
        ``d_i - d_j``, a core test's by ``d_kth - Eps^2``, so each
        ``x_bits`` list holds ``bits(gap)`` ciphertexts and each
        ``witnesses`` list one more."""
        channel = Channel()
        partition = _horizontal()
        config = _config(selection=selection)
        run_enhanced_horizontal_dbscan(partition, config, channel=channel)
        bound = squared_distance_bound(partition.alice_points,
                                       partition.bob_points)
        eps_squared = config.eps_squared
        gaps = {"kselect": bound,
                "core_test": max(bound - eps_squared, eps_squared)}
        # The masked interval the comparisons used to pay for.
        mask_bound = config.smc.mask_bound(bound)
        assert (2 * (bound + mask_bound) + 1).bit_length() \
            > bound.bit_length() + config.smc.mask_sigma
        sizes = {}
        for entry in channel.transcript.entries:
            kind = entry.label.rsplit("/", 1)[-1]
            if kind in ("x_bits", "witnesses"):
                phase = entry.label.split("/")[2]
                sizes.setdefault((phase, kind), set()).add(len(entry.value))
        assert sizes == {
            (phase, kind): {gap.bit_length() + (kind == "witnesses")}
            for phase, gap in gaps.items()
            for kind in ("x_bits", "witnesses")}

    def test_mesh(self):
        points = {"p0": POINTS[:2], "p1": POINTS[2:4], "p2": POINTS[4:]}
        config = _config()
        mesh = PartyMesh(list(points), config.smc, seeds=[1, 2, 3])
        run_multiparty_horizontal_dbscan(points, config, mesh=mesh)
        for transcript in mesh.pair_transcripts().values():
            _check_transcript(transcript, "encrypted_alpha",
                              "blinded_sums", "x_bits", "witnesses")
