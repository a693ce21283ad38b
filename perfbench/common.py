"""Helpers shared by the three workloads: paths, environment, stats."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for sockets and daemon dumps; listed in .gitignore.
RUN_DIR = ROOT / ".perfbench-run"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, no ledger)."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def clean_environment() -> List[str]:
    """Drop every ``REPRO_*`` variable (disk cache, checkpoint journal,
    faults, jobs, telemetry, task budgets...) so a stray setting cannot
    change what is measured.  Returns the names removed."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    return removed


def child_environment() -> Dict[str, str]:
    """Environment for processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_ledger() -> Dict[str, object]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    with open(path) as handle:
        return json.load(handle)


def _git_sha() -> str:
    """HEAD's sha read from ``.git`` directly; ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_stamp(seed: int, workload: str, trace: bool,
               cleared: Sequence[str]) -> Dict[str, object]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cleared_env": list(cleared),
    }


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the value at rank ``ceil(f * n)``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# ----------------------------------------------------------------------
# Host speed.
# ----------------------------------------------------------------------
#: Iterations of the calibration loop, and its time on the host the
#: ledger was made on (2-vCPU x86_64 VM, Python 3.11.7).  Host times
#: are reported at that speed: measured seconds x CAL_REF_S / the
#: loop's median time next to the measurement.
CAL_OPS = 50_000
CAL_REF_S = 0.0075
#: Loop runs per mark; a mark is their median.  Many short ops (the
#: points) get one run each, and the median over neighbouring marks
#: (:meth:`HostSpeed.op_scales`) smooths them.  A few ops of seconds
#: each (the sweep's apps, service-warm's slices) get longer marks.
CAL_BURSTS = 1
CAL_BURSTS_LONG = 15


def calibration_loop(n: int) -> int:
    """Interpreter-bound and allocation-light (no GC-tracked objects
    per iteration), so a change to the program cannot move it."""
    x = 0
    table = [0] * 64
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
        table[x & 63] += 1
    return x


def time_calibration(bursts: int) -> float:
    """Median seconds per run of the calibration loop over ``bursts``
    runs."""
    out = []
    for _ in range(bursts):
        t0 = time.perf_counter()
        calibration_loop(CAL_OPS)
        out.append(time.perf_counter() - t0)
    return median(out)


class HostSpeed:
    """Host speed, sampled next to the work.

    The hosts this was tuned on change speed by up to 1.5x within
    minutes (a fixed loop timed 0.20-0.54 s), so a run's raw times say
    as much about the host as about the program.  A workload calls
    :meth:`mark` before its first op and after every op (outside the
    op's timing).  An op's scale is ``CAL_REF_S`` over the median loop
    time of the marks next to it: the two around it and one more on
    each side.  A single mark can be far off (one read twice the loop
    time of its neighbours), and the median of four ignores it."""

    def __init__(self, bursts: int = CAL_BURSTS,
                 measure: Optional[Callable[[], float]] = None) -> None:
        #: Times one mark; by default the loop runs in this process.
        self.measure = measure or (lambda: time_calibration(bursts))
        self.marks: List[float] = []
        #: Seconds spent in :meth:`mark`.
        self.spent = 0.0

    def mark(self) -> None:
        t0 = time.perf_counter()
        self.marks.append(self.measure())
        self.spent += time.perf_counter() - t0

    def op_scales(self) -> List[float]:
        return [CAL_REF_S / median(self.marks[max(0, op - 1):op + 3])
                for op in range(len(self.marks) - 1)]


def peak_rss_mb(maxrss_kb: Optional[int] = None) -> float:
    """Peak resident set in MB (``ru_maxrss`` is KiB on Linux)."""
    if maxrss_kb is None:
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss_kb / 1024.0


# ----------------------------------------------------------------------
# Modelled-hardware counts (exact; a change is a changed answer).
# ----------------------------------------------------------------------
GPU_COUNTS = (
    "gpu.cycles", "gpu.warp_insts", "gpu.l1_hits", "gpu.l1_misses",
    "gpu.l2_misses", "gpu.mshr_stall_cycles", "gpu.dram_bytes",
    "gpu.local_insts",
)


def gpu_counts_of_results(sims: Iterable[object]) -> Dict[str, float]:
    """Sum the modelled counts of :class:`repro.sim.stats.SimResult`s.

    ``math.fsum`` is exactly rounded, so the sums do not depend on the
    (seeded) order the results were produced in."""
    fields = {
        "gpu.cycles": lambda s: s.cycles,
        "gpu.warp_insts": lambda s: s.instructions,
        "gpu.l1_hits": lambda s: s.l1.hits,
        "gpu.l1_misses": lambda s: s.l1.misses,
        "gpu.l2_misses": lambda s: s.l2.misses,
        "gpu.mshr_stall_cycles": lambda s: s.mshr_stall_cycles,
        "gpu.dram_bytes": lambda s: s.dram_bytes,
        "gpu.local_insts": lambda s: s.local_insts,
    }
    sims = list(sims)
    return {name: math.fsum(get(s) for s in sims)
            for name, get in fields.items()}


def gpu_counts_of_replies(sims: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """The same sums over service reply payloads.  Replies carry no L1/L2
    hit or miss counts (only the hit rate), so those read 0 here."""
    wire = {
        "gpu.cycles": "cycles",
        "gpu.warp_insts": "instructions",
        "gpu.mshr_stall_cycles": "mshr_stall_cycles",
        "gpu.dram_bytes": "dram_bytes",
        "gpu.local_insts": "local_insts",
    }
    sims = list(sims)
    out = {name: 0.0 for name in GPU_COUNTS}
    for name, key in wire.items():
        out[name] = math.fsum(float(s[key]) for s in sims)
    return out
