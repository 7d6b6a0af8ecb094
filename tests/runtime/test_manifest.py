"""Run manifests: roundtrip, digest binding, unsupported-config refusal."""

import pytest

from repro.core.config import ProtocolConfig
from repro.runtime.manifest import (
    ManifestError,
    RunManifest,
    UnsupportedConfigError,
    config_from_dict,
    config_to_dict,
    manifest_digest,
    pair_key,
)
from repro.smc.session import SmcConfig


def config(**smc_overrides) -> ProtocolConfig:
    smc = dict(paillier_bits=128, comparison="bitwise", key_seed=9)
    smc.update(smc_overrides)
    return ProtocolConfig(eps=1.0, min_pts=3, scale=10,
                          smc=SmcConfig(**smc))


def manifest(**overrides) -> RunManifest:
    fields = dict(
        session_id="run-1",
        names=("p0", "p1", "p2"),
        seeds=(1, 2, 3),
        counts={"p0": 4, "p1": 3, "p2": 5},
        dimensions=2,
        value_bound=3600,
        ports={"p0|p1": 9001, "p0|p2": 9002, "p1|p2": 9003},
        config=config_to_dict(config()),
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestConfigSerialization:
    def test_roundtrip_preserves_every_runtime_field(self):
        original = ProtocolConfig(
            eps=1.5, min_pts=4, scale=100, blind_cross_sum=True,
            query_constant_blinding=True, cache_peer_ciphertexts=True,
            smc=SmcConfig(paillier_bits=192, comparison="bitwise",
                          key_seed=33, mask_sigma=12, precompute=False))
        restored = config_from_dict(config_to_dict(original))
        assert config_to_dict(restored) == config_to_dict(original)
        assert restored.eps == original.eps
        assert restored.smc.key_seed == 33
        assert restored.smc.precompute is False

    def test_old_manifest_fields_refused(self):
        """A config written before the ablation knobs were removed must
        not load as a different configuration than it names."""
        old_shape = config_to_dict(config())
        old_shape.update(batched_region_queries=False,
                         batched_comparisons=True, use_grid_index=True,
                         concurrent_peers=True, peer_workers=None)
        with pytest.raises(ManifestError) as refused:
            config_from_dict(old_shape)
        message = str(refused.value)
        for name in ("batched_region_queries", "batched_comparisons",
                     "use_grid_index", "concurrent_peers", "peer_workers"):
            assert name in message
        with pytest.raises(ManifestError, match="unknown field"):
            manifest(config=old_shape).protocol_config()

    def test_missing_and_unknown_fields_named_per_level(self):
        payload = config_to_dict(config())
        del payload["min_pts"]
        with pytest.raises(ManifestError,
                           match=r"protocol config: missing field\(s\) "
                                 r"min_pts"):
            config_from_dict(payload)
        payload = config_to_dict(config())
        del payload["smc"]["key_seed"]
        payload["smc"]["engine_workers"] = 2
        with pytest.raises(ManifestError,
                           match=r"smc config: unknown field\(s\) "
                                 r"engine_workers; missing field\(s\) "
                                 r"key_seed"):
            config_from_dict(payload)

    def test_oracle_backend_refused(self):
        with pytest.raises(UnsupportedConfigError, match="bitwise"):
            config_to_dict(config(comparison="oracle"))

    def test_ympp_backend_refused(self):
        with pytest.raises(UnsupportedConfigError, match="bitwise"):
            config_to_dict(config(comparison="ympp"))

    def test_missing_key_seed_refused(self):
        with pytest.raises(UnsupportedConfigError, match="key_seed"):
            config_to_dict(config(key_seed=None))

    def test_engine_refused(self):
        from repro.crypto.engine import ModexpEngine
        with pytest.raises(UnsupportedConfigError, match="engine"):
            config_to_dict(config(engine=ModexpEngine(workers=1)))


class TestRunManifest:
    def test_json_roundtrip(self):
        original = manifest()
        assert RunManifest.from_json(original.to_json()) == original

    def test_pairs_follow_slot_order(self):
        assert manifest().pairs() == [("p0", "p1"), ("p0", "p2"),
                                      ("p1", "p2")]

    def test_placeholder_points_have_public_shape_only(self):
        placeholders = manifest().placeholder_points("p1")
        assert placeholders == [(0, 0)] * 3

    def test_protocol_config_reconstructs(self):
        rebuilt = manifest().protocol_config()
        assert rebuilt.smc.comparison == "bitwise"
        assert rebuilt.eps == 1.0

    @pytest.mark.parametrize("mutation", [
        dict(seeds=(1, 2, 4)),
        dict(counts={"p0": 4, "p1": 3, "p2": 6}),
        dict(value_bound=7200),
        dict(session_id="run-2"),
        dict(config=config_to_dict(
            ProtocolConfig(eps=1.0, min_pts=3, scale=10,
                           blind_cross_sum=True,
                           query_constant_blinding=True,
                           smc=SmcConfig(paillier_bits=128,
                                         comparison="bitwise",
                                         key_seed=9)))),
    ])
    def test_digest_binds_every_field(self, mutation):
        assert manifest_digest(manifest()) \
            != manifest_digest(manifest(**mutation))

    def test_validation(self):
        with pytest.raises(ManifestError, match="at least two"):
            manifest(names=("p0",), seeds=(1,), counts={"p0": 1},
                     ports={})
        with pytest.raises(ManifestError, match="parallel"):
            manifest(seeds=(1, 2))
        with pytest.raises(ManifestError, match="exactly the party names"):
            manifest(counts={"p0": 4, "p1": 3})
        with pytest.raises(ManifestError, match="mesh pairs"):
            manifest(ports={"p0|p1": 9001})

    def test_pair_key_is_order_insensitive(self):
        assert pair_key("b", "a") == pair_key("a", "b") == "a|b"

    def test_optional_fields_have_defaults(self):
        """Only the session's shape is required; faults, namespace, key
        pins and the auth flag default to a plain fault-free run."""
        import json
        payload = json.loads(manifest().to_json())
        for name in ("host", "faults", "rng_namespace", "key_digests",
                     "link_auth", "version"):
            payload.pop(name)
        restored = RunManifest.from_json(json.dumps(payload))
        assert restored == manifest()

    def test_digest_binds_the_fault_plan(self):
        """Faults ride inside the manifest digest: a fleet where one
        process plans a kill and another does not must refuse to link."""
        from repro.runtime.faults import FaultPlan
        plan = FaultPlan.parse(["kill:p1@pass1"])
        assert manifest_digest(manifest()) \
            != manifest_digest(manifest(faults=plan.to_dicts()))


class TestMalformedManifestJson:
    """Outside input fails with a typed error naming what is wrong,
    never a TypeError from deep inside the constructor."""

    @pytest.mark.parametrize("payload,needle", [
        ("[]", "JSON object, got list"),
        ('"x"', "JSON object, got str"),
        ("{not json", "unreadable manifest"),
    ])
    def test_non_object_json(self, payload, needle):
        with pytest.raises(ManifestError, match=needle):
            RunManifest.from_json(payload)

    @pytest.mark.parametrize("field,value", [
        ("names", 5),
        ("seeds", "123"),
        ("counts", []),
        ("dimensions", "2"),
        ("config", None),
        ("faults", ["kill"]),
        ("rng_namespace", 3),
        ("link_auth", "yes"),
    ])
    def test_wrong_shaped_field_is_named(self, field, value):
        import json
        payload = json.loads(manifest().to_json())
        payload[field] = value
        with pytest.raises(ManifestError, match=f"'{field}'"):
            RunManifest.from_json(json.dumps(payload))

    def test_missing_field_is_named(self):
        import json
        payload = json.loads(manifest().to_json())
        del payload["value_bound"]
        with pytest.raises(ManifestError, match="'value_bound'"):
            RunManifest.from_json(json.dumps(payload))
