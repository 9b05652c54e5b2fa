"""``repro serve`` with the benchmark's span wrappers installed.

Recording starts off and is switched on by ``SIGUSR1``, so a warm-up pass
leaves no spans.  On shutdown (``SIGINT``, as for ``repro serve``) the
recorded spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

T_START = time.perf_counter()

from common import import_repro  # noqa: E402 - the clock starts first
import tracing  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--port", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    repro = import_repro()
    from repro.cli import main as cli_main
    from repro.service import app  # noqa: F401 - imported by serve anyway

    import_s = time.perf_counter() - T_START

    rec = tracing.Recorder(enabled=False)
    tracing.install_library(rec, repro)
    tracing.install_service(rec)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(rec, "enabled", True))
    try:
        return cli_main(["serve", "--port", args.port])
    finally:
        tracing.dump_spans(rec.spans, args.spans, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
