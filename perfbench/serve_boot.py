"""Start ``repro serve`` the way the CLI does, optionally traced.

Usage::

    python3 perfbench/serve_boot.py --dump PATH [--trace] -- SERVE-ARGS...

With ``--trace`` the layer wrappers of ``tracing.py`` are installed
before the CLI's ``serve`` runs.  When the daemon has drained and
returned, the spans and the process's peak RSS are written to ``PATH``
as JSON.

Each line read on standard input asks for a host-speed mark taken in
this process (``common.calibration_loop``); the answer is a line
``mark SECONDS`` on standard output.  The benchmark asks between load
slices, while the daemon is idle, so the mark times the process that
does the work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

from common import CAL_OPS, calibration_loop, use_checkout_sources

#: Loop runs per mark (about 0.1 s).  A mark is their mean, not their
#: median: the daemon's slow spells come in bursts shorter than a mark
#: (the host's other tenants taking the CPU), and the requests around
#: the mark pay for them, so the mark must too.
MARK_RUNS = 13


def _answer_marks() -> None:
    for _ in sys.stdin:
        t0 = time.perf_counter()
        for _ in range(MARK_RUNS):
            calibration_loop(CAL_OPS)
        seconds = (time.perf_counter() - t0) / MARK_RUNS
        print(f"mark {seconds!r}", flush=True)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    use_checkout_sources()
    from repro.cli import main as cli_main

    tracer = None
    if args.trace:
        from tracing import Tracer, install_layer_wrappers

        tracer = Tracer()
        install_layer_wrappers(tracer)
    threading.Thread(target=_answer_marks, daemon=True).start()
    code = cli_main(["serve", *serve_args])
    dump = {
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else None,
    }
    partial = args.dump + ".part"
    with open(partial, "w") as handle:
        json.dump(dump, handle)
    os.replace(partial, args.dump)
    return code


if __name__ == "__main__":
    sys.exit(main())
