"""Benchmark of the CRAT reproduction, driven through its public entry points.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` installs the layer
wrappers of ``tracing.py`` and reports the per-layer metrics.  Each
workload module has the interface described in ``outcome.py``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the host, the seed, the sample counts and the raw values.  Host times
are reported at a reference host speed (``common.HostSpeed``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from typing import Dict

from common import (
    ROOT, SetupError, child_environment, clean_environment, host_stamp,
    load_ledger, median, use_checkout_sources,
)
from tracing import SpanError, layer_summary, span_cost

MODULES = {
    "sweep-cold": "sweep_cold",
    "points-cold": "points_cold",
    "service-warm": "service_warm",
}
#: Extra set-ups (fresh interpreters) whose median gives ``setup_s``.
SETUP_PROBES = 2
#: How a metric's unit follows the host-speed scale.
_SCALE_POWER = {"s": 1, "ms": 1, "1/s": -1, "req/s": -1}


def _probe_setup(workload: str, seed: int) -> float:
    """Time the workload's set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--setup-probe"],
        env=child_environment(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _layer_metrics(spans) -> Dict[str, float]:
    layer = layer_summary(spans)
    get = lambda key: float(layer.get(key, 0.0))  # noqa: E731
    run_loop = get("sim.batch.self_s") + get("sim.scalar.self_s")
    warp_insts = get("sim.batch.warp_insts") + get("sim.scalar.warp_insts")
    return {
        "sim.trace.self_s": get("sim.trace.self_s"),
        "sim.trace.calls": get("sim.trace.calls"),
        "sim.batch.self_s": get("sim.batch.self_s"),
        "sim.batch.points": get("sim.batch.points"),
        "sim.scalar.self_s": get("sim.scalar.self_s"),
        "sim.scalar.calls": get("sim.scalar.calls"),
        "sim.warp_insts_per_s": warp_insts / run_loop if run_loop else 0.0,
        "engine.self_s": get("engine.self_s"),
        "regalloc.self_s": get("regalloc.self_s"),
        "regalloc.calls": get("regalloc.calls"),
        "core.search.self_s": get("core.search.self_s"),
        "core.candidates": get("core.search.candidates"),
        "workloads.kernelgen.self_s": get("workloads.kernelgen.self_s"),
        "ptx.fingerprint.self_s": get("ptx.fingerprint.self_s"),
        "ir.passes.self_s": get("ir.passes.self_s"),
        "verify.self_s": get("verify.self_s"),
    }


def _scaled(values: Dict[str, float], scale: float,
            units: Dict[str, str]) -> Dict[str, float]:
    return {name: value * scale ** _SCALE_POWER.get(units.get(name), 0)
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cleared = clean_environment()
    os.chdir(ROOT)
    try:
        use_checkout_sources()
        ledger = load_ledger()
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    module = importlib.import_module(MODULES[args.workload])
    state = module.setup(args.seed, bool(args.trace))
    try:
        own_setup = time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        measured = module.run(state, args.seconds)
        module.check(state, measured)
    finally:
        module.cleanup(state)
    setup_s = own_setup
    if not args.trace:
        setup_s = median([own_setup] + [
            _probe_setup(args.workload, args.seed)
            for _ in range(SETUP_PROBES)
        ])

    attempted = measured.attempted
    if not attempted:
        raise SystemExit("perfbench: the run attempted no operation")
    failed = measured.failed
    correct = measured.correct and failed == 0
    stamp = host_stamp(args.seed, args.workload, bool(args.trace), cleared)
    stamp.update(samples=len(measured.latencies), seconds=args.seconds,
                 host_scale=measured.scale)

    # Host times at the reference host speed (see common.HostSpeed).
    if not args.trace:
        declared = ledger["end_to_end"]
        values = dict(measured.end_to_end, setup_s=setup_s * measured.scale)
        stamp["raw_metrics"] = dict(measured.raw_end_to_end, setup_s=setup_s)
    else:
        declared = ledger["per_layer"]
        units = {entry["name"]: entry["unit"] for entry in declared}
        spans = measured.spans or []
        raw = {"error_rate": failed / attempted}
        try:
            raw.update(_layer_metrics(spans))
        except SpanError as err:
            correct = False
            measured.messages.append(str(err))
        raw.update(measured.counters)
        raw["trace.wall_s"] = measured.raw_end_to_end["wall_s"]
        raw["trace.throughput_rps"] = measured.raw_end_to_end["throughput_rps"]
        raw["trace.spans"] = float(len(spans))
        raw["trace.span_cost_est_s"] = len(spans) * span_cost()
        stamp["raw_metrics"] = raw
        values = _scaled(raw, measured.scale, units)

    names = [entry["name"] for entry in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: "
                         f"{unknown}")
    # A layer the workload does not reach reads 0.
    metrics = {entry["name"]: {"value": float(values.get(entry["name"], 0.0)),
                               "unit": entry["unit"]} for entry in declared}
    for message in measured.messages:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
