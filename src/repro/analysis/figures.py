"""Textual renderings of the paper's partition figures (Figures 2-4).

Figures 2, 3 and 4 of the paper are ownership diagrams of the virtual
database; these functions regenerate them (as ASCII ownership grids)
from actual partition objects, so the diagrams in the docs always match
the data structures.  Each cell shows which party holds that attribute
of that record: ``A`` (Alice), ``B`` (Bob).
"""

from __future__ import annotations

from repro.data.partitioning import (
    ALICE,
    ArbitraryPartition,
    HorizontalPartition,
    VerticalPartition,
)


def render_horizontal_figure(partition: HorizontalPartition) -> str:
    """Figure 2: Alice's record rows above Bob's."""
    dimensions = partition.dimensions
    lines = [_header(dimensions)]
    for index in range(len(partition.alice_points)):
        lines.append(_row(f"d{index + 1}", ["A"] * dimensions))
    for index in range(len(partition.bob_points)):
        record = len(partition.alice_points) + index + 1
        lines.append(_row(f"d{record}", ["B"] * dimensions))
    return "\n".join(lines)


def render_vertical_figure(partition: VerticalPartition) -> str:
    """Figure 3: Alice's attribute columns beside Bob's."""
    owners = [None] * partition.dimensions
    for column in partition.alice_columns:
        owners[column] = "A"
    for column in partition.bob_columns:
        owners[column] = "B"
    lines = [_header(partition.dimensions)]
    for record in range(partition.size):
        lines.append(_row(f"d{record + 1}", owners))
    return "\n".join(lines)


def render_arbitrary_figure(partition: ArbitraryPartition) -> str:
    """Figure 4: per-record, per-attribute ownership."""
    lines = [_header(partition.dimensions)]
    for record in range(partition.size):
        cells = ["A" if partition.owner_of(record, attribute) == ALICE
                 else "B"
                 for attribute in range(partition.dimensions)]
        lines.append(_row(f"d{record + 1}", cells))
    return "\n".join(lines)


def _header(dimensions: int) -> str:
    cells = [f"attr{k + 1}" for k in range(dimensions)]
    return _row("", cells)


def _row(label: str, cells) -> str:
    rendered = " ".join(str(cell).center(5) for cell in cells)
    return f"{label:>5} | {rendered}"
