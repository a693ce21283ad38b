"""What one workload run hands back to ``run.py``.

Every workload module has the same four calls::

    setup(seed, trace) -> state      inputs; for a daemon, boot + warm-up
    run(state, seconds) -> Measured  the timed region
    check(state, measured)           answer checks, outside the timing
    cleanup(state)                   stop whatever set-up started

``run.py`` times the import and ``setup`` itself, and takes everything
else from :class:`Measured`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from common import percentile, peak_rss_mb
from tracing import Span

#: Engine counters from the public ``EvaluationEngine.snapshot()``.
ENGINE_COUNTERS = (
    "sim_hits", "sim_misses", "trace_hits", "trace_misses",
    "batched_points", "retries", "degraded", "sim_failures",
)


@dataclasses.dataclass
class Measured:
    """The timed region's results plus what the checks found."""

    #: One host-time latency per op, in seconds.
    latencies: List[float]
    attempted: int
    #: The end-to-end metrics the workload measures (every one but
    #: ``setup_s``), as reported, and as measured before any host-speed
    #: scaling (see ``common.HostSpeed``).
    end_to_end: Dict[str, float]
    raw_end_to_end: Dict[str, float]
    #: Host-speed scale of the run: ``run.py`` multiplies ``setup_s`` and
    #: every per-layer time by it (and divides rates by it).
    scale: float = 1.0
    #: Spans recorded in the timed region when traced, else ``None``.
    spans: Optional[List[Span]] = None
    #: Workload-specific outputs the checks compare.
    results: object = None
    #: Ops that raised, keyed by op label.
    errors: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Per-layer metrics the workload computes itself (engine and
    #: service counters, per-app times, modelled-hardware counts).
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Set by the checks.
    failed: int = 0
    correct: bool = True
    messages: List[str] = dataclasses.field(default_factory=list)


def fixed_work(latencies: List[float], scales: List[float], wall_s: float,
               **fields) -> Measured:
    """The :class:`Measured` of a fixed amount of work done in this
    process.  Its end-to-end values are given at the reference host
    speed: each op's latency scaled by the host speed measured around it
    (``scales``), the wall by the run-wide mean."""
    scale = sum(t * k for t, k in zip(latencies, scales)) / sum(latencies)

    def values(lat: List[float], wall: float) -> Dict[str, float]:
        return {
            "wall_s": wall,
            "latency_p50_ms": percentile(lat, 0.50) * 1e3,
            "latency_p90_ms": percentile(lat, 0.90) * 1e3,
            "throughput_rps": len(lat) / wall,
            "peak_rss_mb": peak_rss_mb(),
        }

    scaled = [t * k for t, k in zip(latencies, scales)]
    return Measured(
        latencies=latencies, attempted=len(latencies),
        end_to_end=values(scaled, wall_s * scale),
        raw_end_to_end=values(latencies, wall_s), scale=scale, **fields,
    )


def engine_counters(engine_or_stats) -> Dict[str, float]:
    """The engine counters under their per-layer metric names."""
    stats = engine_or_stats
    if not isinstance(stats, dict):
        stats = engine_or_stats.snapshot()["stats"]
    return {"engine." + name: float(stats.get(name, 0))
            for name in ENGINE_COUNTERS}
