"""``repro serve`` with the benchmark's host probe running.

The server that ``service-mix`` measures.  It pins itself to one CPU
before the server starts its threads, so the probe, which runs in the
main thread, samples the core the request handling and the jobs run on.
On shutdown (``SIGINT``, as for ``repro serve``) the probe samples are
written to ``--samples`` as a JSON list of ``[start, seconds]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import HostProbe, import_repro


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--port", required=True)
    ap.add_argument("--samples", required=True)
    args = ap.parse_args()

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_repro()
    from repro.cli import main as cli_main

    probe = HostProbe()
    probe.start()
    try:
        return cli_main(["serve", "--port", args.port])
    finally:
        probe.stop()
        with open(args.samples, "w") as fh:
            json.dump(probe.samples, fh)


if __name__ == "__main__":
    sys.exit(main())
