"""Span recording around the public calls into each layer of ``repro``.

The benchmark never edits the program.  It wraps the functions each
layer exposes *at the namespace that calls them*: ``engine.engine``
imports ``trace_grid`` and ``simulate_traces_batched`` by name,
``core.crat`` and ``core.throttling`` import ``allocate`` by name, and
the engine's serial task runner imports ``repro.sim.gpu.simulate_traces``
lazily, so each of those names is replaced where it is looked up.

A span is ``[name, start, end, parent, counts]``; ``parent`` is the
index of the enclosing span on the same thread (-1 for a root) and
``counts`` holds work counters taken from the call's arguments or
result.  Times come from ``time.monotonic`` so spans recorded in the
service daemon line up with the window the client measured.
"""

from __future__ import annotations

import collections
import contextlib
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = List[object]
Counter = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """Records nested spans per thread; keeps them in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span: Span = [name, time.monotonic(), 0.0,
                          stack[-1] if stack else -1, None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.monotonic()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner: object, attr: str, name: str,
              counter: Optional[Counter] = None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, counter))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched name back (checks then run untraced)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Work counters taken from a wrapped call.
# ----------------------------------------------------------------------
def _batch_counts(args, kwargs, results) -> Dict[str, float]:
    return {
        "points": len(results),
        "warp_insts": sum(r.instructions for r in results),
    }


def _scalar_counts(args, kwargs, result) -> Dict[str, float]:
    return {"warp_insts": result.instructions}


def _prune_counts(args, kwargs, candidates) -> Dict[str, float]:
    return {"candidates": len(candidates)}


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public call of every layer where its caller finds it."""
    import repro.core.crat as crat
    import repro.core.throttling as throttling
    import repro.engine.engine as engine_mod
    import repro.ir as ir
    import repro.ptx.module as ptx_module
    import repro.service.jobs as service_jobs
    import repro.sim.gpu as sim_gpu
    import repro.verify as verify
    import repro.workloads.suite as suite

    tracer.patch(engine_mod, "trace_grid", "sim.trace")
    tracer.patch(engine_mod, "simulate_traces_batched", "sim.batch",
                 _batch_counts)
    # The serial/pool task runner imports this one lazily, per call.
    tracer.patch(sim_gpu, "simulate_traces", "sim.scalar", _scalar_counts)
    tracer.patch(engine_mod.EvaluationEngine, "simulate_outcomes", "engine")
    tracer.patch(crat, "allocate", "regalloc")
    tracer.patch(throttling, "allocate", "regalloc")
    tracer.patch(crat, "prune", "core.search", _prune_counts)
    tracer.patch(crat, "score", "core.search")
    tracer.patch(crat, "measure_costs", "core.search")
    tracer.patch(suite, "generate_kernel", "workloads.kernelgen")
    tracer.patch(ptx_module.Kernel, "fingerprint", "ptx.fingerprint")
    tracer.patch(ir, "run_pipeline", "ir.passes")
    tracer.patch(crat, "run_pipeline", "ir.passes")
    tracer.patch(service_jobs, "run_pipeline", "ir.passes")
    tracer.patch(verify, "lint_kernel", "verify")


@contextlib.contextmanager
def recording(enabled: bool) -> Iterator[Optional[Tracer]]:
    """The layer wrappers installed for the ``with`` body when
    ``enabled`` (yields the tracer), else nothing (yields ``None``)."""
    if not enabled:
        yield None
        return
    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------
class SpanError(AssertionError):
    """Children of a span cover more time than the span itself."""


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Raises :class:`SpanError` when the children of any span sum to more
    than the span (children of one thread nest, so that is a bug)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    out = []
    for index, span in enumerate(spans):
        duration = span[2] - span[1]
        if child_time[index] > duration + 1e-9:
            raise SpanError(
                f"span {span[0]!r} lasted {duration:.6f}s but its children "
                f"sum to {child_time[index]:.6f}s"
            )
        out.append(duration - child_time[index])
    return out


def in_window(spans: Sequence[Span], start: float, end: float) -> List[Span]:
    """Spans that began inside ``[start, end]``, with parents re-indexed
    (a parent outside the window makes the span a root)."""
    keep = {}
    out: List[Span] = []
    for index, span in enumerate(spans):
        if start <= span[1] <= end:
            keep[index] = len(out)
            out.append(list(span))
    for span in out:
        span[3] = keep.get(span[3], -1)
    return out


def layer_summary(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time and call count per layer, plus the work counters."""
    selfs = self_times(spans)
    totals: Dict[str, float] = collections.defaultdict(float)
    for span, own in zip(spans, selfs):
        name = span[0]
        totals[f"{name}.self_s"] += own
        totals[f"{name}.calls"] += 1
        for key, value in (span[4] or {}).items():
            totals[f"{name}.{key}"] += value
    return dict(totals)


def span_cost(calls: int = 20000) -> float:
    """Host seconds the wrapper adds to a call that does nothing
    (measured here).  Counter callbacks and lock contention between
    threads are not in it."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibrate", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(0.0, traced - plain) / calls

