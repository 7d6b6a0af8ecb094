"""The public run description shared by every party process.

A :class:`RunManifest` is everything about an orchestrated run that is
*public by protocol design* -- party names and order, per-party RNG
seeds, per-party point counts, the dimensionality, the comparison-domain
bound, the full protocol configuration, and the port plan.  Private data
(the coordinates themselves) never enters the manifest; each party loads
its own partition file and nothing else.

The manifest is also the unit the handshake digests: two processes whose
manifests differ in *any* field produce different digests and refuse
each other's links before a single protocol byte flows.

Supported configuration surface
-------------------------------

The socket runtime executes the existing choreography implementations on
both ends of every link (see :mod:`repro.runtime.mirror`), which
requires every party's *coin streams* to be derivable from public
seeds: ``SmcConfig.key_seed`` and per-party seeds are mandatory, and
the comparison backend must be ``"bitwise"`` (the ``oracle`` backend
compares both plaintexts locally without touching the wire -- there is
nothing to transport -- and ``ympp`` support is future work).  Key
material is *sealed* per party: each process derives only its **own**
slot's keypair from ``key_seed``; peers' public keys are captured from
the authentic wire exchange and cross-checked against the manifest's
per-party ``key_digests``, and their private halves exist in this
process only as public-only sealed stand-ins
(:mod:`repro.crypto.sealed`).  Unsupported configurations raise
:class:`UnsupportedConfigError` at orchestration time, never mid-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.config import ProtocolConfig
from repro.smc.session import SmcConfig

#: Default hostname party processes bind and dial.  Loopback by
#: default: single-machine runs need no routing.  Multi-host meshes
#: pass an explicit host per manifest plus a ``bind_host`` on the
#: listening side, and should enable link authentication (a pre-shared
#: key -- see DESIGN.md, "Threat model") so frames crossing a real
#: network are integrity-checked.
DEFAULT_HOST = "127.0.0.1"


class UnsupportedConfigError(ValueError):
    """The configuration cannot run on the socket runtime (yet)."""


class ManifestError(ValueError):
    """Malformed or inconsistent manifest data."""


_SMC_FIELDS = ("paillier_bits", "rsa_bits", "comparison", "mask_sigma",
               "faithful_shared_r", "key_seed", "precompute")
_PROTOCOL_FIELDS = ("eps", "min_pts", "scale", "selection",
                    "blind_cross_sum", "query_constant_blinding",
                    "cache_peer_ciphertexts")


#: Comparison backends the socket runtime can execute, with the reason
#: each *other* backend is refused -- surfaced verbatim in
#: :class:`UnsupportedConfigError` so a rejection names what IS allowed.
SUPPORTED_COMPARISON_BACKENDS = ("bitwise",)
_UNSUPPORTED_COMPARISON_REASONS = {
    "oracle": "compares both plaintexts locally -- nothing crosses a "
              "wire, so there is nothing for the runtime to transport",
    "ympp": "RSA-based millionaires' comparison is not yet mirrored "
            "over sockets (future work)",
}


def validate_runtime_config(config: ProtocolConfig) -> None:
    """Refuse configurations the socket runtime cannot execute."""
    if config.smc.comparison not in SUPPORTED_COMPARISON_BACKENDS:
        supported = ", ".join(repr(name)
                              for name in SUPPORTED_COMPARISON_BACKENDS)
        reason = _UNSUPPORTED_COMPARISON_REASONS.get(
            config.smc.comparison, "not a comparison backend the socket "
            "runtime knows how to mirror")
        raise UnsupportedConfigError(
            f"comparison backend {config.smc.comparison!r} cannot run on "
            f"the socket runtime: {reason}.  Supported backends: "
            f"{supported}")
    if config.smc.key_seed is None:
        raise UnsupportedConfigError(
            "the socket runtime requires SmcConfig(key_seed=...): every "
            "party process derives its OWN slot's keypair "
            "deterministically (peers' public keys arrive over the wire, "
            "pinned by the manifest's key_digests -- see DESIGN.md, "
            "'Sealed per-party keys')")
    if config.smc.engine is not None:
        raise UnsupportedConfigError(
            "SmcConfig.engine cannot cross a process boundary; party "
            "processes build their own engines (leave engine=None)")


def config_to_dict(config: ProtocolConfig) -> dict:
    """Serialize the runtime-relevant configuration, validating support."""
    validate_runtime_config(config)
    payload = {name: getattr(config, name) for name in _PROTOCOL_FIELDS}
    payload["smc"] = {name: getattr(config.smc, name)
                      for name in _SMC_FIELDS}
    return payload


def _check_fields(payload, expected: tuple[str, ...], where: str) -> None:
    """Refuse a config dict whose keys are not exactly ``expected``.

    A manifest written by an older version may carry fields this version
    no longer has (or lack new ones); loading it anyway would silently
    run a different configuration than the one its digest describes.
    """
    if not isinstance(payload, dict):
        raise ManifestError(f"{where} config must be a dict, got "
                            f"{type(payload).__name__}")
    unknown = sorted(set(payload) - set(expected))
    missing = sorted(set(expected) - set(payload))
    problems = []
    if unknown:
        problems.append(f"unknown field(s) {', '.join(unknown)}")
    if missing:
        problems.append(f"missing field(s) {', '.join(missing)}")
    if problems:
        raise ManifestError(f"{where} config: {'; '.join(problems)}")


def config_from_dict(payload: dict) -> ProtocolConfig:
    """Rebuild the configuration; raises :class:`ManifestError` unless
    the dict has exactly the :func:`config_to_dict` fields."""
    _check_fields(payload, _PROTOCOL_FIELDS + ("smc",), "protocol")
    _check_fields(payload["smc"], _SMC_FIELDS, "smc")
    smc = SmcConfig(**payload["smc"])
    kwargs = {name: payload[name] for name in _PROTOCOL_FIELDS}
    return ProtocolConfig(smc=smc, **kwargs)


@dataclass(frozen=True)
class RunManifest:
    """Public description of one orchestrated run.

    Attributes:
        session_id: unique id of this run; the handshake refuses links
            across sessions.
        names: party names in mesh slot order (the order drives pass
            sequencing, key-slot derivation, and pair orientation).
        seeds: per-party RNG seeds, parallel to ``names``.  Public by
            construction: the runtime's determinism -- and the privacy
            analysis of the reproduction as a whole -- treats coin
            streams as reproducible test fixtures, not secrets.
        counts: per-party point counts (public: the paper's protocols
            reveal dataset sizes).
        dimensions: coordinate dimensionality, shared by all parties.
        value_bound: the public comparison-domain bound
            (``squared_distance_bound`` over the union of all parties'
            points; every process must use the same bound or mask sizes
            and DGK widths diverge).
        ports: ``{pair_key: port}`` -- one TCP port per unordered pair;
            the lower-slot party listens, the higher-slot party dials.
        config: the protocol configuration dict
            (:func:`config_to_dict` shape).
        host: bind/dial host for every link.
        timeout_s: socket receive timeout for protocol frames.
        connect_timeout_s: total budget for one link's dial (and the
            matching accept wait) during link-up -- generous, because
            after a failure the surviving parties wait here for the
            dead party's re-spawn.
        connect_retries: maximum dial attempts within that budget.
        backoff_base_s: base of the shared exponential-backoff-with-
            seeded-jitter cadence (see :mod:`repro.runtime.backoff`)
            used between dial attempts and between orchestrator
            re-spawns.
        recovery_budget: how many recovery cycles (teardown, epoch
            bump, re-link-up, resume) one party process tolerates
            before giving up fatally.
        faults: the serialized :class:`~repro.runtime.faults.FaultPlan`
            (empty for a fault-free run).  Manifest-carried so every
            process interprets the same seeded plan -- deterministic
            chaos, inside the handshake digest like everything else.
        rng_namespace: optional per-session coin-stream namespace (see
            :func:`repro.multiparty.mesh.derive_pair_rng`).  The daemon
            runtime sets it to the session id so concurrent sessions
            sharing seeds never share coins; ``None`` -- the
            single-session default -- keeps the legacy streams, so
            every pre-existing manifest digest and equivalence is
            untouched.
        key_digests: ``{party: sha256}`` over each party's Paillier
            and DGK *public* keys
            (:func:`repro.crypto.sealed.public_key_digest`), computed
            by the trusted orchestrator at manifest-build time.  Each
            party process derives only its own keys; peers' public
            keys are captured from the wire exchange and
            cross-checked (constant-time) against these digests before
            any protocol byte depends on them.  Empty -- the legacy
            default -- skips the pin, so pre-PR-8 manifests still load.
        link_auth: whether every link authenticates its frames with the
            out-of-band pre-shared key (HMAC handshake tag + per-frame
            MACs).  The PSK itself NEVER enters the manifest -- only
            this public flag does, inside the handshake digest, so an
            authenticated and an unauthenticated deployment can never
            half-connect.
    """

    session_id: str
    names: tuple[str, ...]
    seeds: tuple[int, ...]
    counts: dict[str, int]
    dimensions: int
    value_bound: int
    ports: dict[str, int]
    config: dict
    host: str = DEFAULT_HOST
    timeout_s: float = 30.0
    connect_timeout_s: float = 15.0
    connect_retries: int = 120
    backoff_base_s: float = 0.02
    recovery_budget: int = 3
    faults: tuple = ()
    rng_namespace: str | None = None
    key_digests: dict = field(default_factory=dict)
    link_auth: bool = False
    version: int = field(default=1)

    def __post_init__(self):
        if len(self.names) < 2:
            raise ManifestError("a run needs at least two parties")
        if len(set(self.names)) != len(self.names):
            raise ManifestError(f"duplicate party names in {self.names}")
        if len(self.seeds) != len(self.names):
            raise ManifestError("seeds must parallel names")
        if set(self.counts) != set(self.names):
            raise ManifestError("counts must cover exactly the party names")
        if self.dimensions < 1:
            raise ManifestError(
                f"dimensions must be >= 1, got {self.dimensions}")
        if self.value_bound < 1:
            raise ManifestError(
                f"value_bound must be >= 1, got {self.value_bound}")
        expected_pairs = {pair_key(a, b) for a, b in self.pairs()}
        if set(self.ports) != expected_pairs:
            raise ManifestError(
                f"ports must cover exactly the mesh pairs "
                f"{sorted(expected_pairs)}, got {sorted(self.ports)}")
        if self.connect_timeout_s <= 0:
            raise ManifestError(
                f"connect_timeout_s must be > 0, got "
                f"{self.connect_timeout_s}")
        if self.connect_retries < 1:
            raise ManifestError(
                f"connect_retries must be >= 1, got {self.connect_retries}")
        if self.backoff_base_s < 0:
            raise ManifestError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.recovery_budget < 0:
            raise ManifestError(
                f"recovery_budget must be >= 0, got {self.recovery_budget}")
        if self.key_digests and set(self.key_digests) != set(self.names):
            raise ManifestError(
                f"key_digests must cover exactly the party names "
                f"{sorted(self.names)}, got {sorted(self.key_digests)}")
        object.__setattr__(self, "faults",
                           tuple(dict(spec) for spec in self.faults))

    # -- mesh geometry -----------------------------------------------------

    def pairs(self) -> list[tuple[str, str]]:
        """Unordered pairs in slot order (matches ``PartyMesh``)."""
        return [(left, right)
                for index, left in enumerate(self.names)
                for right in self.names[index + 1:]]

    def pairs_of(self, name: str) -> list[tuple[str, str]]:
        return [pair for pair in self.pairs() if name in pair]

    def slot_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ManifestError(f"unknown party {name!r}") from None

    def seed_of(self, name: str) -> int:
        return self.seeds[self.slot_of(name)]

    def peers_of(self, name: str) -> list[str]:
        self.slot_of(name)
        return [other for other in self.names if other != name]

    def placeholder_points(self, name: str) -> list[tuple[int, ...]]:
        """A remote party's partition as this process may know it: the
        public *count* of points, each an all-zeros coordinate tuple.
        The mirrored choreography passes these for the remote party, whose
        steps it does not execute here; only public shapes (counts,
        dimensions) are read from them (see :mod:`repro.runtime.mirror`)."""
        zero = tuple([0] * self.dimensions)
        return [zero] * self.counts[name]

    def protocol_config(self) -> ProtocolConfig:
        return config_from_dict(self.config)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "session_id": self.session_id,
            "names": list(self.names),
            "seeds": list(self.seeds),
            "counts": dict(self.counts),
            "dimensions": self.dimensions,
            "value_bound": self.value_bound,
            "ports": dict(self.ports),
            "config": self.config,
            "host": self.host,
            "timeout_s": self.timeout_s,
            "connect_timeout_s": self.connect_timeout_s,
            "connect_retries": self.connect_retries,
            "backoff_base_s": self.backoff_base_s,
            "recovery_budget": self.recovery_budget,
            "faults": [dict(spec) for spec in self.faults],
            "rng_namespace": self.rng_namespace,
            "key_digests": dict(self.key_digests),
            "link_auth": self.link_auth,
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, payload: str) -> "RunManifest":
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"unreadable manifest: {exc}") from exc
        try:
            return cls(
                session_id=data["session_id"],
                names=tuple(data["names"]),
                seeds=tuple(data["seeds"]),
                counts=dict(data["counts"]),
                dimensions=data["dimensions"],
                value_bound=data["value_bound"],
                ports=dict(data["ports"]),
                config=data["config"],
                host=data.get("host", DEFAULT_HOST),
                timeout_s=data.get("timeout_s", 30.0),
                connect_timeout_s=data.get("connect_timeout_s", 15.0),
                connect_retries=data.get("connect_retries", 120),
                backoff_base_s=data.get("backoff_base_s", 0.02),
                recovery_budget=data.get("recovery_budget", 3),
                faults=tuple(data.get("faults", ())),
                rng_namespace=data.get("rng_namespace"),
                key_digests=dict(data.get("key_digests", {})),
                link_auth=bool(data.get("link_auth", False)),
                version=data.get("version", 1),
            )
        except KeyError as exc:
            raise ManifestError(f"manifest missing field {exc}") from exc


def pair_key(a: str, b: str) -> str:
    """Canonical string key of an unordered pair (JSON-dict friendly).

    Shares its ordering with the transport layer's pair
    canonicalization, so link profiles, ports, and reports all key the
    same way.
    """
    from repro.net.transport import canonical_pair

    return "|".join(canonical_pair(a, b))


def manifest_digest(manifest: RunManifest) -> str:
    """SHA-256 over the canonical manifest JSON -- the handshake binding.

    Any divergence between two processes' manifests (a different seed, a
    different point count, a flipped protocol flag) changes the digest,
    so mismatched deployments are refused at link setup.
    """
    return hashlib.sha256(manifest.to_json().encode()).hexdigest()
