"""Tests for the Figure 2-4 renderings."""

import random

from repro.analysis.figures import (
    render_arbitrary_figure,
    render_horizontal_figure,
    render_vertical_figure,
)
from repro.data.dataset import Dataset
from repro.data.partitioning import (
    partition_arbitrary,
    partition_from_masks,
    partition_horizontal,
    partition_vertical,
)

DATASET = Dataset.from_points([(1, 2, 3), (4, 5, 6), (7, 8, 9)])


class TestHorizontalFigure:
    def test_figure_2_shape(self):
        figure = render_horizontal_figure(partition_horizontal(DATASET, 2))
        lines = figure.splitlines()
        assert len(lines) == 4  # header + 3 records
        assert lines[1].count("A") == 3
        assert lines[3].count("B") == 3

    def test_record_ids_sequential(self):
        figure = render_horizontal_figure(partition_horizontal(DATASET, 1))
        assert "d1" in figure and "d3" in figure


class TestVerticalFigure:
    def test_figure_3_shape(self):
        figure = render_vertical_figure(partition_vertical(DATASET, 2))
        lines = figure.splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            # Alice's two columns then Bob's one, on every record row.
            assert line.count("A") == 2
            assert line.count("B") == 1


class TestArbitraryFigure:
    def test_figure_4_shape(self):
        partition = partition_from_masks(DATASET, [
            ("alice", "bob", "alice"),
            ("bob", "bob", "bob"),
            ("alice", "alice", "bob"),
        ])
        figure = render_arbitrary_figure(partition)
        lines = figure.splitlines()
        assert lines[1].count("A") == 2 and lines[1].count("B") == 1
        assert lines[2].count("B") == 3
        assert lines[3].count("A") == 2

    def test_header_names_attributes(self):
        partition = partition_arbitrary(DATASET, random.Random(0))
        header = render_arbitrary_figure(partition).splitlines()[0]
        assert "attr1" in header and "attr3" in header
