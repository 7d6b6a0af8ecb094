"""Fault injection and recovery: chaos runs must stay bit-identical.

The equivalence bar of the fault-tolerant session layer: a k-party
socket run with injected failures -- kills at pass boundaries, kills
mid-pass, dropped connections, truncated frames, refused dials --
followed by automatic recovery must merge to **bit-identical**
observables (labels, disclosure ledger, per-pair transcripts,
comparison counts, stats) as the fault-free in-process mesh.  In
particular the disclosure ledger holds exactly one copy of each
disclosure: replayed passes never re-announce.

The single-kill smoke and the double-kill acceptance run in tier-1
(``sockets`` + ``faults`` markers); the wider chaos matrix is
additionally marked ``slow`` for the weekly job.
"""

import json
import socket
import time

import pytest

from repro.net.framing import (
    FRAME_MESSAGE,
    ConnectionClosedError,
    FramedConnection,
    ReceiveTimeout,
)
from repro.runtime.failure import (
    CAUSE_BUDGET_EXHAUSTED,
    CAUSE_CONNECTION_LOST,
    CAUSE_CRASH,
    CAUSE_DIGEST_DIVERGENCE,
    CAUSE_TIMEOUT,
    FATAL,
    RETRYABLE,
    classification_of,
    load_failure,
)
from repro.runtime.faults import (
    FaultPlan,
    FaultSpecError,
    FaultyConnection,
    parse_fault,
)
from repro.runtime.checkpoint import CheckpointDivergenceError
from repro.runtime.orchestrator import OrchestrationError, orchestrate_run
from repro.runtime.party import classify_exception, run_party

from tests.runtime.test_orchestrator import (
    assert_bit_identical,
    make_config,
    workload,
)


class TestFaultGrammar:
    def test_kill_at_boundary(self):
        spec = parse_fault("kill:b@pass2")
        assert (spec.kind, spec.party, spec.boundary) == ("kill", "b", 2)
        assert spec.queries is None and spec.epoch == 0

    def test_kill_mid_pass_at_epoch(self):
        spec = parse_fault("kill:b@pass1.q3@e1")
        assert (spec.boundary, spec.queries, spec.epoch) == (1, 3, 1)

    def test_drop_names_a_canonical_pair(self):
        spec = parse_fault("drop:a:b-a@pass1")
        assert spec.pair == ("a", "b")
        assert spec.pair_key() == "a|b"

    def test_delay_carries_seconds(self):
        spec = parse_fault("delay:a:a-b@pass0.f2:0.25")
        assert (spec.frame, spec.seconds) == (2, 0.25)

    def test_truncate_needs_a_frame(self):
        with pytest.raises(FaultSpecError, match="f<F>"):
            parse_fault("truncate:a:a-b@pass1")

    def test_refuse_takes_no_boundary(self):
        assert parse_fault("refuse:a:a-b").boundary is None
        with pytest.raises(FaultSpecError, match="link-up"):
            parse_fault("refuse:a:a-b@pass1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            parse_fault("explode:a@pass1")

    def test_plan_round_trips_through_manifest_dicts(self):
        plan = FaultPlan.parse(["kill:b@pass1", "drop:a:a-b@pass2.q1@e1"],
                               seed=42)
        restored = FaultPlan.from_dicts(plan.to_dicts())
        assert restored.specs == plan.specs
        assert restored.seed == 42

    def test_for_party_filters_by_party_and_epoch(self):
        plan = FaultPlan.parse(["kill:b@pass1", "kill:b@pass1.q2@e1",
                                "kill:c@pass2"])
        assert len(plan.for_party("b", 0).specs) == 1
        assert len(plan.for_party("b", 1).specs) == 1
        assert len(plan.for_party("a", 0).specs) == 0


@pytest.mark.faults
class TestFrameFaultClassification:
    """Satellite bar: an injected truncation reads as EOF-mid-frame
    (connection lost, retryable), never as a timeout -- and an idle
    link's timeout stays a timeout."""

    def make_link(self, specs):
        left, right = socket.socketpair()
        faulty = FaultyConnection(left, specs=specs, state=lambda: 0,
                                  timeout_s=0.4, name="a@a|b")
        peer = FramedConnection(right, timeout_s=0.4, name="b@a|b")
        return faulty, peer

    def test_truncated_frame_is_eof_mid_frame_not_timeout(self):
        spec = parse_fault("truncate:a:a-b@pass0.f1", seed=9)
        faulty, peer = self.make_link([spec])
        with pytest.raises(ConnectionClosedError, match="truncated"):
            faulty.write_frame(FRAME_MESSAGE, b"payload-bytes" * 8)
        with pytest.raises(ConnectionClosedError,
                           match="mid-frame") as excinfo:
            peer.read_frame()
        cause, classification = classify_exception(excinfo.value)
        assert (cause, classification) == (CAUSE_CONNECTION_LOST, RETRYABLE)
        peer.close()

    def test_idle_link_timeout_classified_as_timeout(self):
        faulty, peer = self.make_link([])
        with pytest.raises(ReceiveTimeout) as excinfo:
            peer.read_frame()
        cause, classification = classify_exception(excinfo.value)
        assert (cause, classification) == (CAUSE_TIMEOUT, RETRYABLE)
        faulty.close()
        peer.close()

    def test_delay_fault_delivers_the_frame_intact(self):
        spec = parse_fault("delay:a:a-b@pass0.f1:0.15", seed=9)
        faulty, peer = self.make_link([spec])
        started = time.monotonic()
        faulty.write_frame(FRAME_MESSAGE, b"slow but whole")
        assert time.monotonic() - started >= 0.15
        assert peer.read_frame() == (FRAME_MESSAGE, b"slow but whole")
        faulty.close()
        peer.close()


@pytest.mark.sockets
@pytest.mark.faults
class TestRecovery:
    def test_kill_after_pass_one_recovers_bit_identical(self):
        """Tier-1 smoke: one party dies hard right after checkpointing
        pass 1; the orchestrator re-spawns it with --resume, the
        survivors rewind and re-handshake at the next epoch, and every
        observable matches the fault-free in-process mesh."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=240, faults=["kill:p1@pass1"])
        assert run.respawns["p1"] == 1
        assert [failure.party for failure in run.failures] == ["p1"]
        assert run.failures[0].classification == RETRYABLE
        assert_bit_identical(run, by_party, config, seeds)

    def test_double_kill_including_mid_pass_recovers_bit_identical(self):
        """The acceptance scenario: the same party is killed after pass
        1 and again in the middle of pass 2 (second incarnation, epoch
        1).  Mid-pass kills lose the in-flight pass only -- recovery
        rewinds to the last common boundary, replays, and the merged
        run is bit-identical: no replayed messages, no duplicated
        ledger entries, same comparison counts."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        run = orchestrate_run(
            by_party, config, seeds=seeds, deadline_s=300,
            faults=["kill:p1@pass1", "kill:p1@pass1.q2@e1"])
        assert run.respawns["p1"] == 2
        assert len(run.failures) == 2
        assert_bit_identical(run, by_party, config, seeds)

    def test_respawn_budget_exhaustion_fails_fast_and_classified(self):
        """A party that dies more often than the budget allows abandons
        the run with the classified failure history attached."""
        by_party = workload(2)
        with pytest.raises(OrchestrationError) as excinfo:
            orchestrate_run(by_party, make_config(), seeds=[31, 32],
                            deadline_s=120, retry_budget=0,
                            faults=["kill:p1@pass1"])
        assert "re-spawn budget of 0 exhausted" in str(excinfo.value)
        assert excinfo.value.failures[-1].cause == CAUSE_CRASH
        assert excinfo.value.failures[-1].classification == RETRYABLE

    def test_survivor_budget_exhaustion_is_fatal(self, tmp_path):
        """With recovery_budget=0 the survivors of a kill cannot ride
        out the recovery wave: they write a classified fatal
        recovery-budget-exhausted report and the orchestrator stops
        instead of burning re-spawns."""
        by_party = workload(2)
        with pytest.raises(OrchestrationError) as excinfo:
            orchestrate_run(by_party, make_config(), seeds=[31, 32],
                            run_dir=tmp_path, deadline_s=120,
                            recovery_budget=0, retry_budget=3,
                            faults=["kill:p1@pass1"])
        causes = {failure.cause for failure in excinfo.value.failures}
        assert CAUSE_BUDGET_EXHAUSTED in causes
        exhausted = load_failure(tmp_path, "p0")
        assert exhausted is not None
        assert exhausted.cause == CAUSE_BUDGET_EXHAUSTED
        assert exhausted.classification == FATAL
        assert classification_of(CAUSE_BUDGET_EXHAUSTED) == FATAL


@pytest.mark.sockets
@pytest.mark.faults
class TestOfflineResume:
    """A party killed after its *final* checkpoint has no peers left to
    talk to; --resume rebuilds its report entirely offline."""

    def completed_run_dir(self, tmp_path):
        by_party = workload(2)
        seeds = [31, 32]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              run_dir=tmp_path, deadline_s=120)
        return by_party, seeds, config, run

    def strip_timings(self, payload: str) -> dict:
        data = json.loads(payload)
        data.pop("elapsed_seconds", None)
        data.pop("passes_seconds", None)
        return data

    def test_offline_rebuild_reproduces_the_report(self, tmp_path):
        _, _, _, run = self.completed_run_dir(tmp_path)
        original = (tmp_path / "report_p1.json").read_text()
        (tmp_path / "report_p1.json").unlink()
        report = run_party(tmp_path, "p1", resume=True)
        rebuilt = (tmp_path / "report_p1.json").read_text()
        assert self.strip_timings(rebuilt) == self.strip_timings(original)
        assert report.labels == run.reports["p1"].labels

    def test_tampered_checkpoint_is_fatal_digest_divergence(self, tmp_path):
        self.completed_run_dir(tmp_path)
        path = tmp_path / "checkpoint_p1.json"
        data = json.loads(path.read_text())
        for log in data["frames"].values():
            for frame in log:
                if frame[0] == "out":
                    tampered = frame[2][:-2] + (
                        "00" if frame[2][-2:] != "00" else "ff")
                    frame[2] = tampered
                    break
            else:
                continue
            break
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointDivergenceError):
            run_party(tmp_path, "p1", resume=True)
        failure = load_failure(tmp_path, "p1")
        assert failure is not None
        assert failure.cause == CAUSE_DIGEST_DIVERGENCE
        assert failure.classification == FATAL


@pytest.mark.sockets
@pytest.mark.faults
@pytest.mark.slow
class TestChaosMatrix:
    """The weekly fault matrix: every fault kind, every resume boundary,
    in-process recovery without a re-spawn, and k=4 meshes."""

    @pytest.mark.parametrize("boundary", [1, 2, 3])
    def test_resume_from_every_boundary_of_a_three_party_run(
            self, boundary):
        """Checkpoint-resume determinism: kill the same party after
        each possible completed-pass count (3 = after its final
        checkpoint, the offline-rebuild path)."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=300,
                              faults=[f"kill:p2@pass{boundary}"])
        assert run.respawns["p2"] == 1
        assert_bit_identical(run, by_party, config, seeds)

    @pytest.mark.parametrize("fault", [
        "drop:p1:p0-p1@pass1",
        "drop:p0:p0-p2@pass1.q1",
        "truncate:p1:p0-p1@pass1.f2",
        "delay:p1:p0-p1@pass1.f1:0.2",
        "refuse:p0:p0-p1",
    ])
    def test_connection_faults_recover_in_process(self, fault):
        """Drops, truncations, and refused dials heal without any
        re-spawn: the recovery wave propagates mesh-wide, everyone
        rewinds to the last common checkpoint, and the run stays
        bit-identical."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=300, faults=[fault])
        assert run.respawns == {"p0": 0, "p1": 0, "p2": 0}
        assert_bit_identical(run, by_party, config, seeds)

    def test_four_party_kill_recovers_bit_identical(self):
        by_party = workload(4, per_party=2)
        seeds = [41, 42, 43, 44]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=420, faults=["kill:p2@pass2"])
        assert run.respawns["p2"] == 1
        assert_bit_identical(run, by_party, config, seeds)
