"""Run configuration for the distributed DBSCAN protocols."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.encoding import FixedPointEncoder
from repro.smc.session import SmcConfig


class ConfigError(ValueError):
    """Raised for inconsistent protocol parameters."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a distributed DBSCAN run needs beyond the data.

    Every field names a behaviour the paper or an experiment depends on.
    How a region query executes is not configurable: the horizontal
    protocols always run each secure query as one batched HDP with one
    amortized comparison batch (see
    :func:`~repro.multiparty.horizontal.secure_peer_neighbor_count`).

    Attributes:
        eps: DBSCAN radius, in original (real) coordinate units.
        min_pts: DBSCAN density threshold (query point included).
        scale: fixed-point steps per coordinate unit; data must already be
            quantized with the same scale (see repro.data.quantize).
        smc: cryptographic-layer configuration.
        selection: Section 5 k-th statistic algorithm, ``"scan"`` or
            ``"quickselect"``.
        blind_cross_sum: when True, the HDP masks sum to a random value
            known to the querying party (who compensates in the final
            comparison) instead of the paper's zero -- hides the exact
            dot product from the non-querying party.  Default False =
            paper-faithful.  See DESIGN.md and experiment E7.
        query_constant_blinding: only meaningful with
            ``blind_cross_sum``: draw **one** random offset per region
            query instead of one per peer point.  The comparison
            thresholds of the query are then constant again, so the
            amortized DGK batch keeps its one-bit-encryption-per-query
            shape instead of degrading to per-point runs.  The price is
            a *relative* disclosure: the non-querying party now learns
            the differences between the query's cross dot products
            (each shifted by the same unknown offset), recorded as
            ``DOT_DIFFERENCE`` in the ledger.  Off by default = PR-3
            semantics (per-point offsets, no relative leakage, no
            amortization in blind mode).  See DESIGN.md,
            "Query-constant blinding".
        cache_peer_ciphertexts: when True, the horizontal protocols
            (two-party and k-party) reuse each peer point's encrypted
            coordinates across queries -- cheaper, but the stable point
            ids on the wire make hits linkable (the Figure 1 vector;
            ledger records it).  Off by default; experiment E12
            quantifies the trade.
        alice_seed / bob_seed: per-party RNG seeds; None = nondeterministic.
    """

    eps: float
    min_pts: int
    scale: int = 100
    smc: SmcConfig = field(default_factory=SmcConfig)
    selection: str = "scan"
    blind_cross_sum: bool = False
    query_constant_blinding: bool = False
    cache_peer_ciphertexts: bool = False
    alice_seed: int | None = None
    bob_seed: int | None = None

    def __post_init__(self):
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ConfigError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.selection not in ("scan", "quickselect"):
            raise ConfigError(f"unknown selection method {self.selection!r}")
        if self.query_constant_blinding and not self.blind_cross_sum:
            raise ConfigError(
                "query_constant_blinding refines blind_cross_sum; "
                "enable blind_cross_sum too")

    @property
    def eps_squared(self) -> int:
        """Integer squared-radius threshold on the fixed-point grid."""
        return FixedPointEncoder(self.scale).encode_eps_squared(self.eps)
