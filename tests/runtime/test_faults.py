"""Fault injection and recovery by re-execution: chaos stays bit-identical.

The equivalence bar of the orchestrator's recovery: a k-party run with
injected failures -- kills at pass boundaries, kills mid-pass, dropped
links, truncated frames -- re-runs the whole session on a fresh daemon
fleet and must merge to **bit-identical** observables (labels,
disclosure ledger, per-pair transcripts, comparison counts, stats) as
the fault-free in-process mesh.  A re-run starts from the same manifest
and partitions, so the ledger holds exactly one copy of each
disclosure.  A delay is not a failure: the run completes on its first
attempt.

The single-kill smoke, the double kill and the budget path run in
tier-1 (``sockets`` + ``faults`` markers); the wider chaos matrix is
additionally marked ``slow`` for the weekly job.  Kill faults end a
daemon process (``os._exit``), so they only ever run on process
fleets.
"""

import asyncio
import time

import pytest

from repro.net.framing import (
    FRAME_MUX_MESSAGE,
    encode_frame,
    encode_message_payload,
    encode_mux_payload,
)
from repro.net.transport import (
    AsyncTcpTransport,
    TransportClosedError,
    TransportTimeoutError,
)
from repro.runtime.failure import (
    CAUSE_CONNECTION_LOST,
    CAUSE_CRASH,
    CAUSE_TIMEOUT,
    RETRYABLE,
    classify_exception,
)
from repro.runtime.faults import FaultPlan, FaultSpecError, parse_fault
from repro.runtime.orchestrator import OrchestrationError, orchestrate_run

from tests.net.test_transport import tcp_transport_pair
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

    def test_refuse_is_no_longer_a_fault_kind(self):
        """Daemons link up before any manifest exists, so a link-up
        fault cannot ride in one; the dial retry it exercised has its
        own daemon test."""
        for text in ("refuse:a:a-b", "refuse:a:a-b@pass1"):
            with pytest.raises(FaultSpecError, match="unknown fault kind"):
                parse_fault(text)

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
        assert len(plan.for_attempt(0).for_party("b").specs) == 1
        assert len(plan.for_attempt(1).for_party("b").specs) == 1
        assert plan.for_attempt(1).for_party("c") is None
        assert plan.for_party("a") is None


def link_with_faults(texts, hub, party="alice"):
    """``hub``'s session view as the stream of pass 0's point 0,
    wrapped by ``party``'s fault state."""
    faults = FaultPlan.parse(texts, seed=9).for_party(
        party, hubs={"alice|bob": hub})
    return faults.link(hub.session("s"), "alice|bob", 0, 0)


class _RecordingHub:
    def __init__(self):
        self.aborts = []

    def abort(self, reason):
        self.aborts.append(reason)


class TestMidPassFaultsKeyedByPoint:
    """A pass runs all of its queries at once, so ``.q``/``.f`` name
    the driver's point, never an arrival order."""

    def test_query_fault_fires_at_its_point_whatever_the_order(self):
        hub = _RecordingHub()
        faults = FaultPlan.parse(["drop:a:a-b@pass1.q2"]).for_party(
            "a", hubs={"a|b": hub})
        # Points 2 and 0 of pass 1 and point 1 of pass 0 start first.
        for pass_index, point in ((1, 2), (1, 0), (0, 1)):
            faults.on_query(pass_index, point)
        assert hub.aborts == []
        faults.on_query(1, 1)
        faults.on_query(1, 1)    # the point's query to a second peer
        assert len(hub.aborts) == 1
        assert "in pass 1, query 2" in hub.aborts[0]

    def test_frame_fault_wraps_only_the_point_zero_stream(self):
        hub = AsyncTcpTransport("alice", "bob", "alice")
        faults = FaultPlan.parse(
            ["truncate:alice:alice-bob@pass1.f2"]).for_party(
                "alice", hubs={"alice|bob": hub})
        views = [hub.session(f"s#alice#{point}") for point in range(3)]
        assert faults.link(views[1], "alice|bob", 1, 1) is views[1]
        assert faults.link(views[0], "alice|bob", 0, 0) is views[0]
        wrapped = faults.link(views[0], "alice|bob", 1, 0)
        assert wrapped is not views[0] and wrapped.view is views[0]


@pytest.mark.faults
class TestFrameFaultClassification:
    """An injected truncation reads as EOF mid-frame (connection lost,
    retryable), never as a timeout -- and an idle link's timeout stays
    a timeout."""

    def test_truncated_frame_is_eof_mid_frame_not_timeout(self):
        async def run():
            left, right = await tcp_transport_pair()
            link = link_with_faults(["truncate:alice:alice-bob@pass0.f1"],
                                    left)
            sessions = [right.session("s"), right.session("other")]
            with pytest.raises(TransportClosedError, match="truncated"):
                link.deliver("alice", "bob", "m", b"payload-bytes" * 8)
            errors = []
            for view in sessions:
                with pytest.raises(TransportClosedError,
                                   match="mid-frame") as excinfo:
                    await view.wait_message("m")
                errors.append(excinfo.value)
            await right.aclose()
            return errors

        for error in asyncio.run(run()):
            assert classify_exception(error) == (CAUSE_CONNECTION_LOST,
                                                 RETRYABLE)

    def test_peer_prefix_then_close_fails_every_session(self):
        """The same shape from a raw peer: a prefix of a mux frame,
        then EOF, fails every session multiplexed on the hub."""
        async def run():
            accepted = asyncio.get_running_loop().create_future()
            server = await asyncio.start_server(
                lambda reader, writer: accepted.set_result((reader, writer)),
                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            hub = AsyncTcpTransport("alice", "bob", "bob")
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            hub.start(*await accepted)
            server.close()
            views = [hub.session("s1"), hub.session("s2")]
            frame = encode_frame(FRAME_MUX_MESSAGE, encode_mux_payload(
                "s1", encode_message_payload("m", b"x" * 40)))
            writer.write(frame[:len(frame) // 2])
            await writer.drain()
            writer.close()
            messages = []
            for view in views:
                with pytest.raises(TransportClosedError,
                                   match="mid-frame") as excinfo:
                    await view.wait_message("m")
                messages.append(excinfo.value)
            await hub.aclose()
            return messages

        errors = asyncio.run(run())
        assert len(errors) == 2
        assert all(classify_exception(error)[0] == CAUSE_CONNECTION_LOST
                   for error in errors)

    def test_idle_link_timeout_classified_as_timeout(self):
        async def run():
            left, right = await tcp_transport_pair(timeout_s=0.2)
            with pytest.raises(TransportTimeoutError) as excinfo:
                await right.session("s").wait_message("m")
            await left.aclose()
            await right.aclose()
            return excinfo.value

        assert classify_exception(asyncio.run(run())) == (CAUSE_TIMEOUT,
                                                          RETRYABLE)

    def test_delay_fault_delivers_the_frame_intact(self):
        async def run():
            left, right = await tcp_transport_pair()
            link = link_with_faults(
                ["delay:alice:alice-bob@pass0.f1:0.15"], left)
            view = right.session("s")
            started = time.monotonic()
            link.deliver("alice", "bob", "slow", b"slow but whole")
            link.deliver("alice", "bob", "next", b"in order")
            first = await view.wait_message("slow")
            elapsed = time.monotonic() - started
            second = await view.wait_message("next")
            await left.aclose()
            await right.aclose()
            return first, second, elapsed

        first, second, elapsed = asyncio.run(run())
        assert first == ("slow", b"slow but whole")
        assert second == ("next", b"in order")
        assert elapsed >= 0.15


@pytest.mark.sockets
@pytest.mark.faults
class TestRecovery:
    def test_kill_after_pass_one_recovers_bit_identical(self):
        """Tier-1 smoke: one daemon dies hard right after pass 1; the
        orchestrator re-runs the session on a fresh fleet, and every
        observable matches the fault-free in-process mesh."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=240, faults=["kill:p1@pass1"])
        assert run.attempts == 2
        assert [(failure.party, failure.cause, failure.classification)
                for failure in run.failures] == [("p1", CAUSE_CRASH,
                                                  RETRYABLE)]
        assert "code 13" in run.failures[0].message
        assert_bit_identical(run, by_party, config, seeds)

    def test_double_kill_including_mid_pass_recovers_bit_identical(self):
        """The same daemon is killed after pass 1 on the first attempt
        and in the middle of pass 1 (after its second query) on the
        second: the third attempt is bit-identical -- no duplicated
        ledger entries, same comparison counts."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        run = orchestrate_run(
            by_party, config, seeds=seeds, deadline_s=300,
            faults=["kill:p1@pass1", "kill:p1@pass1.q2@e1"])
        assert run.attempts == 3
        assert [failure.party for failure in run.failures] == ["p1", "p1"]
        assert_bit_identical(run, by_party, config, seeds)

    def test_respawn_budget_exhaustion_fails_fast_and_classified(self):
        """A session that fails more often than the budget allows
        abandons the run with the classified failure history attached."""
        by_party = workload(2)
        with pytest.raises(OrchestrationError) as excinfo:
            orchestrate_run(by_party, make_config(), seeds=[31, 32],
                            deadline_s=120, retry_budget=0,
                            faults=["kill:p1@pass1"])
        assert "retry budget of 0 exhausted" in str(excinfo.value)
        assert excinfo.value.failures[-1].cause == CAUSE_CRASH
        assert excinfo.value.failures[-1].classification == RETRYABLE


@pytest.mark.sockets
@pytest.mark.faults
@pytest.mark.slow
class TestChaosMatrix:
    """The weekly fault matrix: every kill boundary, every link fault,
    and a k=4 mesh."""

    @pytest.mark.parametrize("boundary", [1, 2, 3])
    def test_kill_at_every_boundary_reruns_bit_identical(self, boundary):
        """3 = after the last pass, before the daemon reports."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=300,
                              faults=[f"kill:p2@pass{boundary}"])
        assert run.attempts == 2
        assert run.failures[0].party == "p2"
        assert_bit_identical(run, by_party, config, seeds)

    @pytest.mark.parametrize("fault,attempts", [
        # Boundary 0 (the session's start, before the key announcements)
        # always leaves p0-p1 traffic to lose.  A later boundary need
        # not: with every pass role overlapped, the pair may have sent
        # its last frame by the time p1's first role completes.
        ("drop:p1:p0-p1@pass0", 2),
        ("drop:p0:p0-p2@pass1.q1", 2),
        ("truncate:p1:p0-p1@pass1.f2", 2),
        ("delay:p1:p0-p1@pass1.f1:0.2", 1),
    ])
    def test_link_faults_rerun_bit_identical(self, fault, attempts):
        """Drops and truncations fail the attempt as a lost connection
        and the re-run is bit-identical; a delay only slows the run."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=300, faults=[fault])
        assert run.attempts == attempts
        assert all(failure.cause == CAUSE_CONNECTION_LOST
                   for failure in run.failures)
        assert_bit_identical(run, by_party, config, seeds)

    def test_four_party_kill_recovers_bit_identical(self):
        by_party = workload(4, per_party=2)
        seeds = [41, 42, 43, 44]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=420, faults=["kill:p2@pass2"])
        assert run.attempts == 2
        assert_bit_identical(run, by_party, config, seeds)
