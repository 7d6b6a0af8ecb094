"""Plain-text table rendering for the benchmark harness.

Benchmarks print paper-style tables (experiment id, workload, measured
vs predicted) through :func:`render_table`; each experiment also writes
its table under ``benchmarks/results/``, and its module docstring says
what the table measures against the paper.
"""

from __future__ import annotations


def render_table(headers: list[str], rows: list[list],
                 title: str | None = None) -> str:
    """Monospace table with a header rule; cells are str()-ed."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must match the header width")
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for column, value in enumerate(row):
            widths[column] = max(widths[column], len(value))

    def render_row(values) -> str:
        return " | ".join(value.ljust(width)
                          for value, width in zip(values, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in cells)
    return "\n".join(lines)


def format_ratio(value: float) -> str:
    """Ratio cell with sensible precision for both tiny and large values."""
    if value == 0:
        return "0"
    if value < 0.001:
        return f"{value:.2e}"
    return f"{value:.3f}"
