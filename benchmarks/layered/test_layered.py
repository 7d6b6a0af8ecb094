"""Self-test of the layered benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/layered/test_layered.py -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import model
import results
from probes import LayerTotals, Recorder, self_times
from repro.data.quantize import squared_distance_bound
from repro.multiparty import horizontal
from repro.smc.session import SmcConfig
from workloads import WORKLOADS, deal, protocol_config, reference_labels

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _traced(function):
    recorder = Recorder()
    recorder.install()
    try:
        with recorder.session_span():
            result = function()
    finally:
        recorder.uninstall()
    totals = LayerTotals()
    totals.add(recorder.keys, recorder.spans)
    return result, totals


def test_model_matches_a_128_bit_three_by_two_session():
    workload = WORKLOADS["mesh3-wan"]
    points = deal(workload, seed=5)
    config = dataclasses.replace(
        protocol_config(workload, 5),
        smc=SmcConfig(paillier_bits=128, key_seed=5))
    everything = [p for party in points.values() for p in party]
    bound = squared_distance_bound(everything, everything)
    result, totals = _traced(lambda: horizontal.run_multiparty_horizontal_dbscan(
        points, config, seeds=[1, 2, 3], rng_namespace="selftest"))
    expected = model.predict_mesh(points, config.eps_squared,
                                  config.min_pts, bound)
    assert expected.region_queries == 2 * 6
    assert result.stats["total_messages"] == expected.messages == 66
    assert result.stats["rounds"] == expected.rounds == 51
    assert result.comparisons == expected.comparisons == 24
    assert totals.count("core", "region_query") == expected.region_queries
    assert totals.total_n("smc", "dgk") == expected.dgk_bits
    assert dict(result.labels_by_party) == reference_labels(points, config)
    assert totals.coverage() > 0.9


def test_density_tests_replay_counts_requeried_noise_points():
    # party0's first point is noise on its own test, then a seed of the
    # core point next to it, so Algorithm 4 tests it twice.
    points = {"party0": [(0, 0), (100, 0), (150, 0), (200, 0)],
              "party1": [(5000, 0), (5050, 0)],
              "party2": [(120, 40), (9000, 0)]}
    config = dataclasses.replace(
        protocol_config(WORKLOADS["mesh3-inproc"], 3),
        smc=SmcConfig(comparison="oracle"))
    _, totals = _traced(lambda: horizontal.run_multiparty_horizontal_dbscan(
        points, config, seeds=[1, 2, 3]))
    tests = {name: model.density_tests(
        own, [p for other, theirs in points.items() if other != name
              for p in theirs], config.eps_squared, config.min_pts)
        for name, own in points.items()}
    assert tests["party0"] == 5
    assert totals.count("multiparty", "scheduler") == sum(tests.values())


def test_probes_restore_every_patched_attribute():
    from repro.crypto.paillier import PaillierCiphertext
    from repro.net import channel, serialization

    before = (PaillierCiphertext.__add__, serialization.serialize_message,
              channel.serialize_message)
    recorder = Recorder()
    recorder.install()
    assert channel.serialize_message is not before[2]
    recorder.uninstall()
    assert (PaillierCiphertext.__add__, serialization.serialize_message,
            channel.serialize_message) == before


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        (1, 0, 0, 0.0, 10.0, 1),
        (2, 1, 0, 1.0, 4.0, 1),
        (3, 1, 0, 3.0, 6.0, 1),   # overlaps span 2 (async children)
        (4, 3, 0, 3.5, 4.5, 1),
        (5, 1, 0, 9.0, 12.0, 1),  # runs past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - (6.0 - 1.0) - (10.0 - 9.0)
    assert selfs[2] == 3.0
    assert selfs[3] == 2.0
    assert selfs[4] == 1.0


def _result_file(values: dict[str, list[float]]) -> dict:
    return {"schema": results.SCHEMA, "provenance": {},
            "sets": [{"label": "A", "runs": {"w": [
                {"seed": seed, "metrics": {name: series[seed]
                                           for name, series in values.items()}}
                for seed in range(len(next(iter(values.values()))))]}}]}


def test_compare_flags_regressions_and_unresolved_spreads(tmp_path):
    metrics = [
        {"name": "p50", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "noisy", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "layer", "unit": "s", "better": "lower"},
        {"name": "from_zero", "unit": "count", "better": "lower",
         "bound": 0.1},
        {"name": "layer_from_zero", "unit": "count", "better": "higher"},
    ]
    base = _result_file({"p50": [1.0, 1.01, 0.99, 1.0],
                         "rate": [2.0, 2.0, 2.01, 1.99],
                         "noisy": [1.0, 1.5, 0.7, 1.2],
                         "layer": [1.0, 1.0, 1.0, 1.0],
                         "from_zero": [0, 0, 0, 0],
                         "layer_from_zero": [0, 0, 0, 0]})
    new = _result_file({"p50": [1.2, 1.21, 1.19, 1.2],
                        "rate": [2.5, 2.5, 2.49, 2.51],
                        "noisy": [1.1, 1.6, 0.8, 1.3],
                        "layer": [3.0, 3.0, 3.0, 3.0],
                        "from_zero": [1, 1, 1, 1],
                        "layer_from_zero": [2, 2, 2, 2]})
    for name, data in (("base.json", base), ("new.json", new)):
        results.save(tmp_path / name, data)
    rows = {row["metric"]: row for row in results.compare(
        results.load(tmp_path / "base.json"),
        results.load(tmp_path / "new.json"), metrics)}
    assert rows["p50"]["status"] == "worse"
    assert abs(rows["p50"]["delta"] - 0.2) < 1e-9
    assert rows["p50"]["base"] == 1.0
    assert rows["rate"]["status"] == "better"
    assert rows["noisy"]["status"] == "unresolved"
    assert rows["layer"]["status"] == "worse*"
    assert rows["layer"]["bound"] is None
    assert rows["from_zero"]["delta"] is None
    assert rows["from_zero"]["status"] == "worse"
    assert rows["layer_from_zero"]["status"] == "better"


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
