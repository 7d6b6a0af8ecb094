"""Shared benchmark helpers.

Every experiment prints a paper-style table and also writes it under
``benchmarks/results/``, so the paper-vs-measured record is a set of
committed artifacts, not scrollback; each experiment module's docstring
says what its table measures against the paper.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Write (and echo) an experiment's output table."""

    def _record(name: str, table: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(table + "\n")
        print(f"\n{table}\n[written to {path}]")

    return _record


def protocol_config(eps: float, min_pts: int, *, backend: str = "bitwise",
                    scale: int = 10, key_seed: int = 500,
                    mask_sigma: int = 8, **kwargs):
    """Benchmark-grade config: modest keys, deterministic seeds."""
    from repro.core.config import ProtocolConfig
    from repro.smc.session import SmcConfig

    return ProtocolConfig(
        eps=eps, min_pts=min_pts, scale=scale,
        smc=SmcConfig(paillier_bits=256, comparison=backend,
                      key_seed=key_seed, mask_sigma=mask_sigma),
        alice_seed=21, bob_seed=22, **kwargs)


def spread_points(count: int, *, offset: int = 0,
                  step: int = 30) -> tuple[tuple[int, int], ...]:
    """A line of isolated points -- workload with predictable query cost."""
    return tuple((offset + step * index, 0) for index in range(count))


def clustered_points(count: int, *, origin: tuple[int, int] = (0, 0),
                     spacing: int = 5) -> tuple[tuple[int, int], ...]:
    """A dense square patch -- workload where everything clusters."""
    side = max(1, int(count ** 0.5))
    points = []
    for index in range(count):
        points.append((origin[0] + spacing * (index % side),
                       origin[1] + spacing * (index // side)))
    return tuple(points)
