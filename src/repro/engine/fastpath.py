"""Tier-1 analytical candidate evaluation (the fast path).

CRAT's hot path historically paid a full cycle-level simulation for
every ``(reg, TLP)`` design point it touched — above all in the OptTLP
profiling sweep, which replays the kernel's traces at every TLP in
``[1, ceiling]``.  The paper itself shows that a static GTO-scheduling
model can *rank* TLP points without simulating (Section 4.1, Figure
10b), and related register-allocation work screens candidates with
analytical cost models before committing to expensive evaluation.

This module is that screen.  :class:`FastPathEvaluator` scores every
design point in a candidate set using only static ingredients:

* **occupancy math** (:mod:`repro.arch.occupancy` and the wave-
  quantization term below) — infeasible points are rejected outright,
  and the latency term charges partially-filled trailing waves, which
  is what makes grid-tail optima (MUM's TLP 4-vs-5 sawtooth)
  distinguishable without simulation;
* **the GTO scheduling mimic** (:func:`repro.analysis.gto_model.
  throughput_cost`) — the kernel is segmented once and the mimic's
  serial makespan anchors the latency scale of the sweep;
* **spill access-count estimates** (:mod:`repro.core.tpsc` over the
  counters :mod:`repro.regalloc.spill` maintains) — points whose
  allocations spill are charged the TPSC per-access delays, ordering
  the register axis (the spill instructions themselves also reach the
  mimic as memory work, because scoring sees the *allocated* kernel).

The model is **anchor-calibrated**: one cycle-level simulation at the
sweep ceiling — which the MaxTLP baseline needs anyway — supplies the
measured DRAM traffic that fixes the bandwidth floor.  Each TLP ``n``
of a grid with ``M`` blocks is then predicted as::

    latency(n)   = serial_mimic_cycles * ceil(M / n) / M
    bandwidth(n) = anchor.dram_bytes / dram_bytes_per_cycle
    cost(n)      = max(latency(n), bandwidth(n))

The engine runs cycle-level simulation only on the **top-K survivors**
of this ranking (:class:`FastPathPolicy`; ``top_k=None`` keeps the
exact pipeline: every point simulates).  With ``refine=True`` the
engine additionally walks the simulated optimum's bracket — simulating
one analytically-preferred neighbour at a time until the running best
has both neighbours simulated — which restores the exact winner on
every calibration workload at a measured ~1.7x simulation saving;
``refine=False`` is the aggressive screen-only tier (>2x fewer
simulations, winner drift bounded by the tolerance documented in
``tests/test_fastpath_differential.py``).

Calibration story: the fast-path scores are *monotone-consistent* with
simulated cycles on the calibration workloads (the resource-sensitive
suite) — watched by the ``agreement`` field of every
:class:`~repro.engine.events.FastPathEvent` and enforced by the
differential tests.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.gto_model import throughput_cost
from ..analysis.segments import Segment, segment_kernel
from ..arch.config import GPUConfig
from ..arch.latency import MemoryCosts, measure_costs
from ..arch.occupancy import compute_occupancy
from ..ptx.module import Kernel
from ..sim.stats import SimResult


@dataclasses.dataclass(frozen=True)
class FastPathPolicy:
    """How aggressively the fast path prunes before simulation.

    ``top_k=None`` (the default) disables the tier entirely: every
    design point goes to cycle-level simulation and the pipeline is
    bit-identical to the pre-fast-path behaviour.  ``top_k=K`` keeps
    the K best-ranked points per candidate set (plus any the caller
    marks *must-keep*, e.g. the MaxTLP baseline point).

    ``refine`` controls the second tier's bracket walk: after the
    survivors simulate, keep simulating the analytically-preferred
    unsimulated neighbour of the running best until the best point has
    both neighbours simulated.  This guarantees the reported optimum is
    a simulated local minimum — on the calibration suite, the global
    one — at the price of a few extra simulations; ``refine=False``
    trusts the top-K screen outright.
    """

    top_k: Optional[int] = None
    refine: bool = True
    hit_ratio: float = 0.6

    @property
    def enabled(self) -> bool:
        return self.top_k is not None

    def resolve_k(self, n_points: int) -> int:
        """The number of survivors out of ``n_points`` candidates."""
        if self.top_k is None:
            return n_points
        if self.top_k <= 0:
            raise ValueError("top_k must be positive (or None for all)")
        return min(self.top_k, n_points)


@dataclasses.dataclass(frozen=True)
class CandidateScore:
    """One design point's analytical (tier-1) score.

    ``cost`` is the predicted cycle count (the max of the latency and
    bandwidth terms for anchored sweeps, the mimic's makespan-per-block
    for un-anchored candidate scoring); ``spill_cost`` the TPSC
    per-access charge of the point's allocation (0 when spill counters
    are unavailable, e.g. the default allocation of a TLP sweep, where
    it is constant across points anyway).  The ordering key is
    lexicographic: predicted cost first, spill charge second, then
    *lower* TLP — at equal predicted cost fewer concurrent blocks give
    the same throughput with less cache-contention risk, which is the
    measured-safe direction on the calibration suite.
    """

    tlp: int
    cost: float
    latency_cycles: float = 0.0
    bandwidth_cycles: float = 0.0
    spill_cost: float = 0.0
    reg: int = 0
    feasible: bool = True

    @property
    def rank_key(self) -> Tuple:
        return (not self.feasible, self.cost, self.spill_cost, self.tlp, -self.reg)


@dataclasses.dataclass(frozen=True)
class FastPathSelection:
    """Outcome of one tier-1 screening pass over a candidate set."""

    scores: Tuple[CandidateScore, ...]  # every point, analytical rank order
    survivors: Tuple[int, ...]  # TLPs that go on to simulation
    skipped: Tuple[int, ...]  # TLPs the fast path pruned
    top_k: int

    @property
    def scored(self) -> int:
        return len(self.scores)

    def score_of(self, tlp: int) -> CandidateScore:
        for s in self.scores:
            if s.tlp == tlp:
                return s
        raise KeyError(f"no fast-path score for TLP {tlp}")


class FastPathEvaluator:
    """Scores design points analytically — no trace replay.

    One evaluator is constructed per candidate set; the kernel is
    segmented once and every TLP reuses the segment stream, so a full
    sweep costs microseconds where a simulation sweep costs seconds.
    """

    def __init__(
        self,
        config: GPUConfig,
        policy: Optional[FastPathPolicy] = None,
        costs: Optional[MemoryCosts] = None,
    ):
        self.config = config
        self.policy = policy or FastPathPolicy()
        #: Lazily measured: the TPSC per-access delays only matter for
        #: candidate sets whose allocations spill.
        self._costs = costs

    @property
    def costs(self) -> MemoryCosts:
        if self._costs is None:
            self._costs = measure_costs(self.config)
        return self._costs

    # ------------------------------------------------------------------
    def screen_sweep(
        self,
        kernel: Kernel,
        tlps: Iterable[int],
        grid_blocks: int,
        anchor: SimResult,
        segments: Optional[List[Segment]] = None,
    ) -> List[CandidateScore]:
        """Score a TLP sweep against the ceiling anchor's measurements.

        ``anchor`` is the cycle-level result at the sweep ceiling (the
        MaxTLP baseline simulation, which the pipeline needs
        regardless); its DRAM traffic fixes the bandwidth floor while
        the GTO mimic's serial makespan fixes the latency scale.  The
        latency term charges wave quantization: a grid of
        ``grid_blocks`` blocks runs ``ceil(M/n)`` waves at TLP ``n``,
        so TLPs that leave a partially-filled trailing wave rank
        measurably worse than divisors of the grid.  Returns scores
        sorted best-first.
        """
        if grid_blocks <= 0:
            raise ValueError("grid_blocks must be positive")
        if segments is None:
            segments = segment_kernel(kernel, self.config)
        serial = throughput_cost(segments, 1, self.config, self.policy.hit_ratio)
        bandwidth = anchor.dram_bytes / self.config.dram_bytes_per_cycle
        scores = []
        for tlp in tlps:
            waves = math.ceil(grid_blocks / tlp)
            latency = serial * waves / grid_blocks
            scores.append(
                CandidateScore(
                    tlp=tlp,
                    cost=max(latency, bandwidth),
                    latency_cycles=latency,
                    bandwidth_cycles=bandwidth,
                )
            )
        scores.sort(key=lambda s: s.rank_key)
        return scores

    def score_tlp_sweep(
        self,
        kernel: Kernel,
        tlps: Iterable[int],
        reg_per_thread: int = 0,
        shm_per_block: int = 0,
        segments: Optional[List[Segment]] = None,
    ) -> List[CandidateScore]:
        """Score every TLP of a sweep at one fixed allocation, without
        an anchor (pure static mimic ordering).

        The kernel's segments (spill instructions included — the
        allocation already rewrote the body) feed the GTO mimic at each
        TLP.  Points whose TLP is not sustainable at ``reg_per_thread``
        are marked infeasible and rank last.  Returns scores sorted
        best-first.
        """
        if segments is None:
            segments = segment_kernel(kernel, self.config)
        ceiling = None
        if reg_per_thread:
            ceiling = compute_occupancy(
                self.config, reg_per_thread, shm_per_block, kernel.block_size
            ).blocks
        scores = []
        for tlp in tlps:
            feasible = ceiling is None or tlp <= ceiling
            scores.append(
                CandidateScore(
                    tlp=tlp,
                    cost=throughput_cost(
                        segments, tlp, self.config, self.policy.hit_ratio
                    ),
                    reg=reg_per_thread,
                    feasible=feasible,
                )
            )
        scores.sort(key=lambda s: s.rank_key)
        return scores

    def score_point(
        self,
        kernel: Kernel,
        tlp: int,
        reg_per_thread: int,
        spill_cost: float,
        segments: Optional[List[Segment]] = None,
    ) -> CandidateScore:
        """Score one allocated ``(reg, TLP)`` candidate.

        ``spill_cost`` is the TPSC per-access charge of the candidate's
        allocation (:func:`repro.core.tpsc.spill_cost`); the kernel is
        the *allocated* kernel, so its segments carry the inserted
        spill instructions into the mimic as memory work.
        """
        if segments is None:
            segments = segment_kernel(kernel, self.config)
        return CandidateScore(
            tlp=tlp,
            cost=throughput_cost(
                segments, tlp, self.config, self.policy.hit_ratio
            ),
            spill_cost=spill_cost,
            reg=reg_per_thread,
        )

    # ------------------------------------------------------------------
    def select(
        self,
        scores: Sequence[CandidateScore],
        must_keep: Iterable[int] = (),
    ) -> FastPathSelection:
        """Split ranked scores into simulation survivors and skips.

        ``must_keep`` TLPs always survive (the calibration anchor and
        the MaxTLP baseline must be simulated regardless of their
        analytical rank); they do not eat into the top-K budget unless
        they rank inside it anyway.
        """
        ranked = sorted(scores, key=lambda s: s.rank_key)
        k = self.policy.resolve_k(len(ranked))
        keep = set(must_keep)
        survivors = []
        skipped = []
        for i, s in enumerate(ranked):
            if i < k or s.tlp in keep:
                survivors.append(s.tlp)
            else:
                skipped.append(s.tlp)
        return FastPathSelection(
            scores=tuple(ranked),
            survivors=tuple(survivors),
            skipped=tuple(skipped),
            top_k=k,
        )

    def next_refinement(
        self,
        scores: Sequence[CandidateScore],
        simulated_cycles: Dict[int, float],
        lo: int,
        hi: int,
    ) -> Optional[int]:
        """The next TLP the bracket walk should simulate, if any.

        The running best is the simulated point with the fewest cycles
        (ties to the lower TLP, matching
        :func:`repro.core.throttling.opt_tlp_from_profile`).  If it has
        unsimulated neighbours inside ``[lo, hi]``, return the one the
        analytical ranking prefers; otherwise ``None`` — the best is
        bracketed by simulated points (or by the sweep boundary) and
        the walk is done.
        """
        if not simulated_cycles:
            return None
        best = min(simulated_cycles, key=lambda t: (simulated_cycles[t], t))
        pending = [
            n for n in (best - 1, best + 1)
            if lo <= n <= hi and n not in simulated_cycles
        ]
        if not pending:
            return None
        by_tlp = {s.tlp: s for s in scores}
        pending.sort(
            key=lambda n: by_tlp[n].rank_key if n in by_tlp else (False, float("inf"), 0.0, n, 0)
        )
        return pending[0]


def estimate_sim_result(
    kernel: Kernel,
    config: GPUConfig,
    tlp: int,
    grid_blocks: int,
    anchor: Optional[SimResult] = None,
    policy: Optional[FastPathPolicy] = None,
) -> SimResult:
    """Analytical stand-in for a design point whose simulation failed.

    The graceful-degradation ladder's last rung: when a point still has
    no simulation after the supervisor's retry budget, the engine
    substitutes the tier-1 predicted cycle count so a sweep can finish
    and report its best available answer.  With a healthy ``anchor``
    (the sweep-ceiling simulation) the anchored screen supplies the
    bandwidth-floored prediction; without one, the pure GTO-mimic cost
    does.  The result is marked ``estimated=True`` — excluded from the
    cache and flagged in the ``DegradeEvent`` instrumentation — and
    deliberately carries zero counters: only its cycle count is
    meaningful.
    """
    from ..sim.cache import CacheStats

    evaluator = FastPathEvaluator(config, policy)
    if anchor is not None and not getattr(anchor, "estimated", False):
        score = evaluator.screen_sweep(kernel, [tlp], grid_blocks, anchor)[0]
    else:
        score = evaluator.score_tlp_sweep(kernel, [tlp])[0]
    return SimResult(
        cycles=score.cost,
        instructions=0,
        tlp=tlp,
        blocks_executed=0,
        l1=CacheStats(),
        l2=CacheStats(),
        mshr_stall_events=0,
        mshr_stall_cycles=0.0,
        barrier_stall_cycles=0.0,
        idle_cycles=0.0,
        local_load_insts=0,
        local_store_insts=0,
        shared_insts=0,
        global_insts=0,
        bypassed_insts=0,
        dram_transactions=0,
        dram_bytes=0,
        issued_by_class={},
        energy_nj=0.0,
        estimated=True,
    )


def rank_agreement(
    scores: Sequence[CandidateScore],
    simulated_cycles: Dict[int, float],
) -> float:
    """Pairwise order agreement between fast-path scores and cycles.

    The fraction of survivor pairs the analytical ranking orders the
    same way cycle-level simulation does (a Kendall-style concordance
    in ``[0, 1]``; ties in either ordering count as agreement).  Only
    points that were actually simulated participate — this is the
    calibration signal the differential tests watch.  Returns 1.0 when
    fewer than two points were simulated (nothing to disagree about).
    """
    ranked = [s for s in scores if s.tlp in simulated_cycles]
    if len(ranked) < 2:
        return 1.0
    agree = 0
    total = 0
    for i in range(len(ranked)):
        for j in range(i + 1, len(ranked)):
            a, b = ranked[i], ranked[j]
            total += 1
            analytic = _sign(b.cost - a.cost)
            simulated = _sign(
                simulated_cycles[b.tlp] - simulated_cycles[a.tlp]
            )
            if analytic == 0 or simulated == 0 or analytic == simulated:
                agree += 1
    return agree / total


def _sign(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0
