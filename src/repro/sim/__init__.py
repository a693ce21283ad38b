"""GPGPU-Sim-like simulator substrate.

Functional SIMT execution of the PTX-subset IR plus a cycle-approximate
SM timing model: GTO warp scheduling, a banked L1 with finite MSHRs, an
L2 slice, a DRAM bandwidth model, and a GPUWattch-style energy model.
"""

from .batch import (
    SIM_SEMANTICS_VERSION,
    BatchedSimulator,
    PackedGrid,
    simulate_traces_batched,
)
from .cache import Cache, CacheStats, DRAMModel, MSHRFullError, ProbeResult
from .energy import DEFAULT_ENERGY_MODEL, EnergyModel, attach_energy
from .executor import (
    BlockExecutor,
    BlockTrace,
    DivergentBranchError,
    WarpOp,
    run_grid,
)
from .gpu import simulate, simulate_traces, trace_grid
from .memory import BlockMemory, GlobalMemory
from .multisim import makespan, simulate_multi_sm
from .scheduler import GTOScheduler, LRRScheduler, WarpScheduler, make_scheduler
from .sm import SMSimulator
from .stats import SimResult

__all__ = [
    "SIM_SEMANTICS_VERSION",
    "BatchedSimulator",
    "BlockExecutor",
    "BlockMemory",
    "BlockTrace",
    "Cache",
    "CacheStats",
    "DEFAULT_ENERGY_MODEL",
    "DRAMModel",
    "DivergentBranchError",
    "EnergyModel",
    "GTOScheduler",
    "GlobalMemory",
    "LRRScheduler",
    "MSHRFullError",
    "PackedGrid",
    "ProbeResult",
    "SMSimulator",
    "SimResult",
    "WarpOp",
    "WarpScheduler",
    "attach_energy",
    "make_scheduler",
    "run_grid",
    "simulate",
    "simulate_multi_sm",
    "simulate_traces",
    "simulate_traces_batched",
    "makespan",
    "trace_grid",
]
