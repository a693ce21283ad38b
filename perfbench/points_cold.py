"""points-cold: a seeded stream of single design points, as
``repro simulate APP --config C --tlp T --grid G [--passes P]`` runs
them, one after another on one fresh engine.

Each run has two or three points for every (app, config) pair of the
22 apps on ``fermi`` and ``kepler``: 100 points, so ``latency_p90_ms``
has 10 samples beyond it.  A point is a TLP in ``1..min(MaxTLP, GRID)``
at the app's default register count and a pipeline, ``""`` or
``minreg-sched``; the seed draws the pipelines, the pairs with a third
point and the order (see :func:`setup`).  Every pair appearing in every
run keeps runs of different seeds comparable.  Singletons take the scalar core, so the
check re-simulates every point on the batched core and compares the
results.
"""

from __future__ import annotations

import collections
import dataclasses
import random
import time
from typing import Dict, List, Tuple

import repro.ir as ir
from repro.arch import get_config
from repro.core.params import collect_resource_usage
from repro.engine import EvaluationEngine, configure, set_engine
from repro.errors import ReproError
from repro.sim.batch import simulate_traces_batched
from repro.workloads import ALL_APPS, load_workload

from common import HostSpeed, gpu_counts_of_results
from outcome import Measured, engine_counters, fixed_work
from tracing import recording

#: Thread blocks per point: four blocks cover TLPs 1-4, where most
#: OptTLPs of the suite lie, at a quarter of the apps' own grids.
GRID = 4
CONFIGS = ("fermi", "kepler")
PIPELINES = ("", "minreg-sched")
#: Points beyond two per (app, config) pair: 100 in all, so
#: ``latency_p90_ms`` has 10 samples beyond it.
EXTRA = 12


@dataclasses.dataclass(frozen=True)
class Point:
    app: str
    config: str
    tlp: int
    passes: str

    @property
    def label(self) -> str:
        return f"{self.app}/{self.config}/tlp{self.tlp}/{self.passes or '-'}"


@dataclasses.dataclass
class State:
    points: List[Point]
    trace: bool


def setup(seed: int, trace: bool) -> State:
    """Per (app, config) pair, the seed draws one pipeline, and the pair
    gets points at TLP ``top`` and 1, where ``top`` is ``min(MaxTLP,
    GRID)``; ``EXTRA`` seeded pairs also get one at the middle of
    ``1..top``.  The seed shuffles the stream; a pair's first point in
    it is always ``top``.  That point generates the pair's traces, and
    the others find them cached and cost the run loop only.  The TLPs
    are fixed because the slowest points make ``latency_p90_ms``: when
    the seed drew TLPs too, the p90 of one run was 1.4x that of
    another."""
    rng = random.Random(seed)
    pairs = {}
    for app in ALL_APPS:
        workload = load_workload(app.abbr)
        for config_name in CONFIGS:
            usage = collect_resource_usage(
                workload.kernel, get_config(config_name),
                default_reg=workload.default_reg,
            )
            top = min(GRID, usage.max_tlp)
            pairs[app.abbr, config_name] = (rng.choice(PIPELINES), [top, 1])
    for pair in rng.sample(sorted(pairs), EXTRA):
        tlps = pairs[pair][1]
        tlps.insert(1, (tlps[0] + 1) // 2)
    order = [pair for pair, (_, tlps) in pairs.items() for _ in tlps]
    rng.shuffle(order)
    points = []
    for app, config_name in order:
        passes, tlps = pairs[app, config_name]
        points.append(Point(app, config_name, tlps.pop(0), passes))
    return State(points, trace)


def _simulate(point: Point):
    """The body of ``repro simulate`` for one point."""
    workload = load_workload(point.app)
    config = get_config(point.config)
    engine = configure(passes=point.passes)
    kernel = workload.kernel
    if point.passes:
        kernel = ir.run_pipeline(kernel, point.passes).kernel
    result = engine.simulate(kernel, config, tlp=point.tlp, grid_blocks=GRID,
                             param_sizes=workload.param_sizes)
    return kernel, workload.param_sizes, result


def run(state: State, seconds: float) -> Measured:
    """The whole stream (a fixed amount of work, so ``wall_s`` compares
    across commits)."""
    engine = set_engine(EvaluationEngine(jobs=1, disk_cache=""))
    results: Dict[Point, Tuple] = {}
    errors: Dict[str, str] = {}
    latencies: List[float] = []
    speed = HostSpeed()
    speed.mark()
    with recording(state.trace) as tracer:
        start, marked = time.perf_counter(), speed.spent
        for point in state.points:
            t0 = time.perf_counter()
            try:
                results[point] = _simulate(point)
            except ReproError as err:
                errors[point.label] = f"{err.kind}: {err}"
            latencies.append(time.perf_counter() - t0)
            speed.mark()
        wall = time.perf_counter() - start - (speed.spent - marked)
    return fixed_work(
        latencies, speed.op_scales(), wall,
        spans=tracer.spans if tracer else None,
        results=results, errors=errors, counters=engine_counters(engine),
    )


def _other_core(engine, points: List[Point], kernel, param_sizes):
    """The batched core's results for ``points`` (one kernel and config)
    over the engine's cached traces."""
    config = get_config(points[0].config)
    traces = engine.traces_for(kernel, config, GRID, param_sizes)
    return simulate_traces_batched(traces, config, [p.tlp for p in points])


def check(state: State, measured: Measured) -> None:
    from repro.engine import get_engine

    engine = get_engine()
    groups: Dict[Tuple[str, str, str], List[Point]] = (
        collections.defaultdict(list))
    for point in measured.results:
        groups[point.app, point.config, point.passes].append(point)
    for points in groups.values():
        kernel, sizes, _ = measured.results[points[0]]
        for point, reference in zip(
                points, _other_core(engine, points, kernel, sizes)):
            result = measured.results[point][2]
            if result != reference:
                measured.failed += 1
                measured.messages.append(
                    f"{point.label}: scalar {result.summary()} != "
                    f"batched {reference.summary()}"
                )
    measured.failed += len(measured.errors)
    measured.messages += list(measured.errors.values())

    # Self-check: a perturbed result must not compare equal.
    if measured.results:
        _, _, result = next(iter(measured.results.values()))
        if dataclasses.replace(result, cycles=result.cycles + 1) == result:
            measured.correct = False
            measured.messages.append("self-check: perturbed result not caught")

    measured.counters.update(gpu_counts_of_results(
        r for _, _, r in measured.results.values()
    ))


def cleanup(state: State) -> None:
    """Nothing outlives the run."""
