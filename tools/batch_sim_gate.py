#!/usr/bin/env python
"""Batched-vs-scalar simulation differential gate.

Runs the batched SoA core (:mod:`repro.sim.batch`) against the scalar
:class:`~repro.sim.sm.SMSimulator` reference over the whole corpus —
``examples/*.ptx`` plus all 22 suite apps — at **every** TLP of each
kernel's staircase (1..max_tlp) under both warp schedulers, on the
``fermi`` and ``kepler`` configs, and fails on any drift in any
:class:`~repro.sim.stats.SimResult` field.  Each point is checked in
both shapes the engine produces: as a lane of the whole multi-lane
sweep, and as a batch of one (how a singleton point runs).  The batched
core's contract is bit-identity, not approximation: a single drifting
counter is a bug.

Example kernels that cannot be traced (e.g. ``miscompiled.ptx``, which
exists to exercise the verifier) are skipped with a note — they can
never reach either simulator in production.

CI runs this as the ``batch-sim-gate`` job; run locally with::

    PYTHONPATH=src python tools/batch_sim_gate.py
"""

from __future__ import annotations

import dataclasses
import glob
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.arch import get_config  # noqa: E402
from repro.core import collect_resource_usage  # noqa: E402
from repro.ptx import parse_kernel  # noqa: E402
from repro.sim import (  # noqa: E402
    simulate_traces,
    simulate_traces_batched,
    trace_grid,
)
from repro.workloads import full_suite, load_workload  # noqa: E402

#: Grid size for bare example kernels (suite apps carry their own).
EXAMPLE_GRID_BLOCKS = 12

SCHEDULERS = ("gto", "lrr")
CONFIGS = ("fermi", "kepler")


def corpus(config):
    """Yield (name, traces, max_tlp) over the whole corpus."""
    for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.ptx"))):
        name = os.path.basename(path)
        with open(path) as handle:
            text = handle.read()
        try:
            kernel = parse_kernel(text)
            traces = trace_grid(kernel, config, EXAMPLE_GRID_BLOCKS, None)
            usage = collect_resource_usage(kernel, config)
        except Exception as err:
            print(f"skip {name}: untraceable ({err})")
            continue
        yield name, traces, usage.max_tlp
    for entry in full_suite():
        workload = load_workload(entry.abbr)
        traces = trace_grid(
            workload.kernel, config, workload.grid_blocks,
            workload.param_sizes,
        )
        usage = collect_resource_usage(
            workload.kernel, config, default_reg=workload.default_reg
        )
        yield entry.abbr, traces, usage.max_tlp


def diff_fields(scalar, batched):
    """Names of the SimResult fields that differ between two results."""
    return [
        f.name
        for f in dataclasses.fields(scalar)
        if getattr(scalar, f.name) != getattr(batched, f.name)
    ]


def check_config(config_name, failures):
    """Gate one config; returns (kernels, points) checked."""
    config = get_config(config_name)
    kernels = 0
    points = 0
    for name, traces, max_tlp in corpus(config):
        kernels += 1
        tlps = list(range(1, max_tlp + 1))
        for scheduler in SCHEDULERS:
            scalar = [
                simulate_traces(traces, config, tlp, scheduler=scheduler)
                for tlp in tlps
            ]
            shapes = {
                "multi-lane": simulate_traces_batched(
                    traces, config, tlps, scheduler=scheduler
                ),
                "batch-of-one": [
                    simulate_traces_batched(
                        traces, config, [tlp], scheduler=scheduler
                    )[0]
                    for tlp in tlps
                ],
            }
            points += len(tlps)
            for shape, batched in shapes.items():
                for tlp, s, b in zip(tlps, scalar, batched):
                    drifted = diff_fields(s, b)
                    if drifted:
                        failures.append(
                            f"{config_name}/{name}: scheduler={scheduler} "
                            f"tlp={tlp} {shape}: drift in "
                            f"{', '.join(drifted)}"
                        )
    return kernels, points


def main() -> int:
    failures = []
    t0 = time.perf_counter()
    for config_name in CONFIGS:
        kernels, points = check_config(config_name, failures)
        print(
            f"batch-sim-gate: {config_name}: {kernels} kernels, {points} "
            f"design points ({'/'.join(SCHEDULERS)}), each as a multi-lane "
            f"lane and as a batch of one"
        )
    print(f"batch-sim-gate: {time.perf_counter() - t0:.1f}s")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        print(f"batch-sim-gate: {len(failures)} drifting point(s)",
              file=sys.stderr)
        return 1
    print("batch-sim-gate: zero drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
