"""Communication accounting tests."""

from hypothesis import given, settings, strategies as st

from repro.net.stats import CommunicationStats


def _populated() -> CommunicationStats:
    stats = CommunicationStats()
    stats.record("alice", "bob", "hdp/cross_terms", 100)
    stats.record("alice", "bob", "hdp/threshold", 50)
    stats.record("bob", "alice", "hdp/cross_terms", 120)
    return stats


class TestCommunicationStats:
    def test_totals(self):
        stats = _populated()
        assert stats.total_bytes == 270
        assert stats.total_messages == 3
        assert stats.total_bits == 270 * 8

    def test_direction_breakdown(self):
        stats = _populated()
        assert stats.bytes_by_direction["alice->bob"] == 150
        assert stats.bytes_by_direction["bob->alice"] == 120

    def test_phase_aggregation(self):
        stats = _populated()
        assert stats.bytes_for_phase("hdp/cross_terms") == 220
        assert stats.bytes_for_phase("hdp") == 270
        assert stats.messages_for_phase("hdp/threshold") == 1

    def test_merge(self):
        left = _populated()
        right = _populated()
        left.merge(right)
        assert left.total_bytes == 540
        assert right.total_bytes == 270  # unchanged

    def test_snapshot_is_plain_data(self):
        snapshot = _populated().snapshot()
        assert snapshot["total_bytes"] == 270
        assert isinstance(snapshot["bytes_by_direction"], dict)

    def test_empty(self):
        stats = CommunicationStats()
        assert stats.total_bytes == 0
        assert stats.bytes_for_phase("anything") == 0


class TestMergeSnapshots:
    def test_matches_object_level_merge(self):
        """merge_snapshots over per-link snapshot dicts must equal
        CommunicationStats.merge over the objects, field for field --
        the invariant the socket runtime's cross-process merge rests
        on."""
        from repro.net.stats import merge_snapshots

        links = []
        for offset, (a, b) in enumerate((("p0", "p1"), ("p0", "p2"))):
            stats = CommunicationStats()
            stats.record(a, b, f"phase{offset}/x", 10 + offset)
            stats.record(b, a, f"phase{offset}/y", 20 + offset)
            stats.record(b, a, f"phase{offset}/y", 5)
            links.append(stats)

        reference = CommunicationStats()
        for stats in links:
            reference.merge(stats)
        assert merge_snapshots(s.snapshot() for s in links) \
            == reference.snapshot()

    def test_empty_iterable_is_zero_snapshot(self):
        from repro.net.stats import merge_snapshots

        assert merge_snapshots([]) == CommunicationStats().snapshot()

    def test_missing_scalar_key_counts_as_zero(self):
        """A snapshot written before a scalar field existed (an old
        report replayed through a newer merge) must fold as zero, not
        raise KeyError."""
        from repro.net.stats import merge_snapshots

        full = _populated().snapshot()
        legacy = dict(full)
        del legacy["rounds"]
        merged = merge_snapshots([legacy, full])
        assert merged["rounds"] == full["rounds"]
        assert merged["total_bytes"] == 2 * full["total_bytes"]

    def test_missing_mapping_key_counts_as_empty(self):
        from repro.net.stats import merge_snapshots

        full = _populated().snapshot()
        legacy = dict(full)
        del legacy["bytes_by_label"]
        merged = merge_snapshots([legacy, full])
        assert merged["bytes_by_label"] == full["bytes_by_label"]

    def test_empty_dict_snapshot_is_ignored(self):
        from repro.net.stats import merge_snapshots

        full = _populated().snapshot()
        assert merge_snapshots([{}, full]) == merge_snapshots([full])


class TestConcurrency:
    def test_concurrent_records_lose_nothing(self):
        """record() from many threads must account every byte -- the
        stats lock is what keeps a channel driven from worker threads
        (the scheduler tests' ``asyncio.to_thread`` queries) exact."""
        import threading

        stats = CommunicationStats()
        per_thread, threads = 500, 8

        def work(index: int) -> None:
            for _ in range(per_thread):
                stats.record("a", "b", f"phase{index}", 1)

        workers = [threading.Thread(target=work, args=(index,))
                   for index in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert stats.total_bytes == per_thread * threads
        assert stats.total_messages == per_thread * threads

    def test_concurrent_merges_into_one_target(self):
        import threading

        source = _populated()
        target = CommunicationStats()
        merges = 6

        def work() -> None:
            target.merge(source)

        workers = [threading.Thread(target=work) for _ in range(merges)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert target.total_bytes == merges * source.total_bytes


def _stream(*senders: str) -> CommunicationStats:
    """One stream of a link: a message per sender, in order."""
    stats = CommunicationStats()
    for sender in senders:
        receiver = "b" if sender == "a" else "a"
        stats.record(sender, receiver, f"from/{sender}", 10)
    return stats


class TestExtendBoundaryRound:
    """Streams of one link concatenate into the link's sequential count:
    the boundary messages share a round when the next stream's first
    sender is the previous stream's last sender."""

    def test_same_sender_at_the_boundary_shares_a_round(self):
        link = _stream("a", "b")          # 2 rounds, ends with b
        link.extend(_stream("b", "a"))    # starts with b: merged
        assert link.rounds == 2 + 2 - 1
        assert link.total_messages == 4

    def test_different_sender_at_the_boundary_adds_rounds(self):
        link = _stream("a", "b")
        link.extend(_stream("a", "b"))
        assert link.rounds == 4

    def test_empty_streams_do_not_move_the_boundary(self):
        link = _stream("a", "b")
        link.extend(CommunicationStats())
        link.extend(_stream("b"))         # still meets b's last message
        assert link.rounds == 2
        empty = CommunicationStats()
        empty.extend(_stream("b", "a"))
        empty.extend(_stream("a"))
        assert empty.rounds == 2

    def test_mesh_pair_is_one_plus_four_rounds_per_query(self):
        """Key exchange (left, right), the left driver's query stream
        (left, right, left, right per query), then the right driver's:
        1 + 4Q rounds, the count model's figure per pair."""
        key_exchange = CommunicationStats()
        key_exchange.record("l", "r", "keys", 1)
        key_exchange.record("r", "l", "keys", 1)
        left_pass = CommunicationStats()
        right_pass = CommunicationStats()
        for stats, driver, peer, count in ((left_pass, "l", "r", 3),
                                           (right_pass, "r", "l", 2)):
            for _ in range(count):
                for sender in (driver, peer, driver, peer):
                    stats.record(sender, "x", "q", 1)
        link = CommunicationStats()
        for stream in (key_exchange, left_pass, right_pass):
            link.extend(stream)
        assert link.rounds == 1 + 4 * (3 + 2)
        # merge() keeps adding rounds: independent links, not streams.
        merged = CommunicationStats()
        for stream in (key_exchange, left_pass, right_pass):
            merged.merge(stream)
        assert merged.rounds == link.rounds + 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("ab"), max_size=6),
                    max_size=5))
    def test_extend_equals_recording_the_concatenation(self, streams):
        concatenated = CommunicationStats()
        link = CommunicationStats()
        for senders in streams:
            stream = _stream(*senders)
            for sender in senders:
                concatenated.record(sender, "b" if sender == "a" else "a",
                                    f"from/{sender}", 10)
            link.extend(stream)
        assert link.snapshot() == concatenated.snapshot()
