"""Singleton design points through the engine's default path, held to
the scalar simulator.

``repro simulate`` evaluates one point per call, so each point is a
supervised group of one on the batched core.  This runs that shape —
every app on ``fermi`` and ``kepler`` at a 4-block grid and TLP
``min(MaxTLP, 4)``, plus one ``minreg-sched`` kernel per config — and
compares every :class:`~repro.sim.stats.SimResult` field with
:class:`~repro.sim.sm.SMSimulator` over the same traces.
"""

import dataclasses

import pytest

import repro.ir as ir
from repro.arch import get_config
from repro.core.params import collect_resource_usage
from repro.engine import EvaluationEngine
from repro.sim import simulate_traces
from repro.workloads import ALL_APPS, load_workload

GRID = 4
CONFIGS = ("fermi", "kepler")
#: The app whose ``minreg-sched`` kernel joins the sweep.
PIPELINE_APP = "GAU"


def _points():
    for config_name in CONFIGS:
        for app in ALL_APPS:
            yield app.abbr, config_name, ""
        yield PIPELINE_APP, config_name, "minreg-sched"


def _drift(expected, actual):
    return [
        f.name
        for f in dataclasses.fields(expected)
        if getattr(expected, f.name) != getattr(actual, f.name)
    ]


@pytest.mark.parametrize("app,config_name,passes", list(_points()))
def test_singleton_matches_scalar(app, config_name, passes):
    engine = EvaluationEngine(jobs=1, disk_cache="")
    workload = load_workload(app)
    config = get_config(config_name)
    kernel = workload.kernel
    if passes:
        kernel = ir.run_pipeline(kernel, passes).kernel
    usage = collect_resource_usage(
        kernel, config, default_reg=workload.default_reg
    )
    tlp = min(usage.max_tlp, GRID)

    result = engine.simulate(kernel, config, tlp, grid_blocks=GRID,
                             param_sizes=workload.param_sizes)

    assert engine.stats.batched_points == 1
    traces = engine.traces_for(kernel, config, GRID, workload.param_sizes)
    expected = simulate_traces(traces, config, tlp)
    assert not _drift(expected, result), (
        f"{app}/{config_name}/tlp{tlp}/{passes or '-'}: drift in "
        f"{', '.join(_drift(expected, result))}"
    )
