"""Traced party daemon for the layered benchmark's trace runs.

Runs the daemon ``repro serve`` runs (``repro.runtime.daemon.run_daemon``,
PSK and trace directory from ``REPRO_PSK`` / ``REPRO_TRACE_DIR``) with
the benchmark's probes installed, and writes the recorded spans to
``--spans`` once a drain shutdown has stopped the daemon::

    PYTHONPATH=src REPRO_PSK=... python3 benchmarks/layered/launcher.py \\
        --spec mesh.json --party party0 --spans party0.spans.json
"""

from __future__ import annotations

import argparse

from probes import Recorder
from repro.runtime.daemon import run_daemon


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--party", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    recorder = Recorder()
    recorder.install()
    try:
        run_daemon(args.spec, args.party)
    finally:
        recorder.uninstall()
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
