"""Supervised process-pool execution of simulation groups.

Design-space sweeps (TLP profiling, candidate evaluation) simulate many
independent points over the same traces.  :func:`run_supervised`
partitions a batch into **groups** — points that share (traces,
config, scheduler) and differ only in TLP — and runs each group as one
task on the batched core (:mod:`repro.sim.batch`), which packs the
traces once for all of its lanes; a lone point is a group of one.  The
groups run under a **supervisor** instead of a bare ``pool.map``:

* tasks are submitted individually, so one crashed or hung worker
  fails only its own group, not the whole batch;
* each task gets a per-attempt wall-clock timeout
  (``REPRO_TASK_TIMEOUT`` / ``--task-timeout``; pool mode only — an
  in-process task cannot be interrupted portably);
* crashed and timed-out groups are retried with backoff, up to
  ``REPRO_TASK_RETRIES`` extra attempts; the **final attempt always
  runs serially in-process**, so a poisoned pool can never lose work
  the interpreter itself could do;
* a ``BrokenProcessPool`` fails only the groups that were in flight —
  finished results are kept, the pool is rebuilt for the retry round;
* deterministic Python exceptions (e.g. a divergence trap in the
  functional simulator) are *not* retried: re-running a deterministic
  failure is wasted work.  A multi-point group that fails that way is
  split into groups of one, so the failure is pinned on its own point.

Everything observable — completed groups, injected faults, retries,
timeouts — is reported through the ``emit`` hook as typed events
(:class:`~repro.engine.events.BatchSimEvent` /
:class:`~repro.engine.events.FaultEvent` /
:class:`~repro.engine.events.RetryEvent`), which the engine routes into
its counters and its ``--trace-json`` channel.

The worker count comes from the ``REPRO_JOBS`` environment variable or
the CLI's ``--jobs`` flag.  If a pool cannot be created (restricted
sandboxes) the batch falls back to the serial path.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch.config import GPUConfig
from ..errors import TaskTimeoutError
from ..sim.executor import BlockTrace
from ..sim.stats import SimResult
from . import faults
from .cache import config_signature
from .events import BatchSimEvent, EngineEvent, FaultEvent, RetryEvent

#: Environment variable setting the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Environment variables configuring the supervisor.
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"

#: One design point: (traces, config, tlp, scheduler).
SimTask = Tuple[List[BlockTrace], GPUConfig, int, str]

#: Positions (into a task list) of the points one group runs.
Group = List[int]

#: What a group task ships to its worker: (traces, config, tlps,
#: scheduler).
GroupTask = Tuple[List[BlockTrace], GPUConfig, List[int], str]

EmitFn = Callable[[EngineEvent], None]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve an explicit ``jobs`` request against ``REPRO_JOBS``.

    ``None`` means "use the environment default"; anything below 1 is
    clamped to the serial path.  An unparseable ``REPRO_JOBS`` falls
    back to serial *loudly*: misconfigured parallelism that silently
    runs serial looks like a performance bug and hides forever.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "")
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                print(
                    f"repro: warning: ignoring invalid {JOBS_ENV}={raw!r} "
                    "(expected an integer); running simulations serially",
                    file=sys.stderr,
                )
                jobs = 1
        else:
            jobs = 1
    return max(1, jobs)


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout budget for one supervised batch.

    ``timeout`` is the per-task wall-clock budget in seconds (``None``:
    unlimited; only enforceable in pool mode).  ``max_attempts`` counts
    every attempt including the first and the final in-process one, so
    the default of 3 means: pool try, pool retry, serial last resort.
    ``backoff`` seconds are slept between rounds, scaled by the round
    number — enough to let transient resource pressure clear without
    stalling tests.
    """

    timeout: Optional[float] = None
    max_attempts: int = 3
    backoff: float = 0.05

    @classmethod
    def from_env(cls) -> "SupervisorPolicy":
        timeout: Optional[float] = None
        raw = os.environ.get(TASK_TIMEOUT_ENV, "")
        if raw:
            try:
                timeout = float(raw)
            except ValueError:
                print(
                    f"repro: warning: ignoring invalid {TASK_TIMEOUT_ENV}="
                    f"{raw!r} (expected seconds)",
                    file=sys.stderr,
                )
        if timeout is not None and timeout <= 0:
            timeout = None
        attempts = 3
        raw = os.environ.get(TASK_RETRIES_ENV, "")
        if raw:
            try:
                attempts = max(1, int(raw) + 1)
            except ValueError:
                print(
                    f"repro: warning: ignoring invalid {TASK_RETRIES_ENV}="
                    f"{raw!r} (expected an integer)",
                    file=sys.stderr,
                )
        return cls(timeout=timeout, max_attempts=attempts)


@dataclasses.dataclass
class TaskOutcome:
    """Terminal state of one design point of a supervised batch.

    ``timed_out`` records whether any attempt of the point's group hit
    the per-task timeout, including attempts that were retried.
    """

    result: Optional[SimResult] = None
    error: Optional[BaseException] = None
    attempts: int = 0
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


def _group_tasks(tasks: Sequence[SimTask], jobs: int) -> List[Group]:
    """Partition task positions into packed-core groups.

    Points that share (traces, config, scheduler) differ only in TLP,
    so they pack once and run as the lanes of one batch; a lone point
    is a group of one.  With ``jobs > 1`` each group is striped into at
    most ``jobs`` sub-groups so the pool keeps its parallelism — lanes
    run on independent clocks, so a split never changes a result.
    """
    by_key: Dict[Tuple[int, str, str], Group] = {}
    for pos, (traces, config, _, scheduler) in enumerate(tasks):
        key = (id(traces), config_signature(config), scheduler)
        by_key.setdefault(key, []).append(pos)
    groups: List[Group] = []
    for positions in by_key.values():
        parts = min(jobs, len(positions))
        groups.extend(positions[k::parts] for k in range(parts))
    return groups


def _group_payload(tasks: Sequence[SimTask], group: Group) -> GroupTask:
    traces, config, _, scheduler = tasks[group[0]]
    return traces, config, [tasks[i][2] for i in group], scheduler


def _simulate_group(task: GroupTask) -> Tuple[List[SimResult], float]:
    """Pack the group once and run its lanes on the batched core."""
    # Looked up on the engine module per call, so a wrapper installed on
    # ``repro.engine.engine.simulate_traces_batched`` sees every
    # production simulation.
    from . import engine

    traces, config, tlps, scheduler = task
    t0 = time.perf_counter()
    results = engine.simulate_traces_batched(
        traces, config, tlps, scheduler=scheduler
    )
    return results, time.perf_counter() - t0


def _supervised_task(
    payload: Tuple[GroupTask, List[str], int],
) -> Tuple[List[SimResult], float]:
    """Pool-worker entry: every member's fault draw, then the group."""
    task, tokens, attempt = payload
    for token in tokens:
        faults.perturb_task(token, attempt, in_pool=True)
    return _simulate_group(task)


def _retryable(error: BaseException) -> bool:
    """Whether a failed attempt is worth retrying.

    Infrastructure failures (timeouts, broken pools, injected transient
    faults, OS-level errors) are transient; deterministic Python
    exceptions out of the simulator are not — the same inputs will fail
    the same way, and the ``fail`` injection kind models exactly that.
    """
    if isinstance(error, faults.InjectedFault):
        return error.fault_kind != "fail"
    if isinstance(error, TaskTimeoutError):
        return True
    try:
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(error, BrokenProcessPool):
            return True
    except ImportError:  # pragma: no cover
        pass
    return isinstance(error, OSError)


def _fail_reason(error: BaseException) -> str:
    if isinstance(error, TaskTimeoutError):
        return "timeout"
    if isinstance(error, faults.InjectedFault):
        return error.fault_kind
    try:
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(error, BrokenProcessPool):
            return "pool-broken"
    except ImportError:  # pragma: no cover
        pass
    return "crash"


def _record_fault(error: BaseException, emit: Optional[EmitFn]) -> None:
    if emit and isinstance(error, faults.InjectedFault):
        emit(
            FaultEvent(
                fault=error.fault_kind,
                token=error.token,
                attempt=error.attempt,
            )
        )


def _settle(
    outcomes: List[TaskOutcome],
    group: Group,
    attempt: int,
    results: Optional[List[SimResult]] = None,
    error: Optional[BaseException] = None,
    timed_out: bool = False,
) -> None:
    """Record one group attempt on every member's outcome."""
    for n, i in enumerate(group):
        out = outcomes[i]
        out.attempts = attempt
        out.timed_out = out.timed_out or timed_out
        out.error = error
        out.result = None if results is None else results[n]


def _batch_event(tasks: Sequence[SimTask], group: Group,
                 seconds: float) -> BatchSimEvent:
    return BatchSimEvent(
        points=len(group), scheduler=tasks[group[0]][3], seconds=seconds
    )


def _serial_round(
    tasks: Sequence[SimTask],
    groups: List[Group],
    tokens: Sequence[str],
    outcomes: List[TaskOutcome],
    attempt: int,
    emit: Optional[EmitFn],
) -> List[Group]:
    """One in-process attempt over ``groups``; returns the failed ones."""
    failed: List[Group] = []
    for group in groups:
        try:
            for i in group:
                faults.perturb_task(tokens[i], attempt, in_pool=False)
            results, seconds = _simulate_group(_group_payload(tasks, group))
        except Exception as err:
            _settle(outcomes, group, attempt, error=err)
            failed.append(group)
            continue
        _settle(outcomes, group, attempt, results=results)
        if emit:
            emit(_batch_event(tasks, group, seconds))
    return failed


def _pool_round(
    tasks: Sequence[SimTask],
    groups: List[Group],
    tokens: Sequence[str],
    outcomes: List[TaskOutcome],
    jobs: int,
    attempt: int,
    timeout: Optional[float],
    emit: Optional[EmitFn],
) -> Tuple[List[Group], bool]:
    """One pool attempt over ``groups``; returns (still_failed, pool_ok).

    ``pool_ok=False`` means the pool could not even be created (no
    fork in this sandbox) and the caller should go serial for good.
    """
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures.process import BrokenProcessPool

    try:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(groups)))
    except (OSError, ImportError, PermissionError):
        return list(groups), False

    futures = []
    try:
        for group in groups:
            futures.append(pool.submit(
                _supervised_task,
                (_group_payload(tasks, group), [tokens[i] for i in group],
                 attempt),
            ))
    except BrokenProcessPool:
        # The pool died during submission; everything retries.
        pool.shutdown(wait=False)
        error = BrokenProcessPool("pool broke during submission")
        for group in groups:
            _settle(outcomes, group, attempt, error=error)
        return list(groups), True

    failed: List[Group] = []
    abandoned = False
    for group, future in zip(groups, futures):
        try:
            results, seconds = future.result(timeout=timeout)
        except FuturesTimeout:
            future.cancel()
            _settle(outcomes, group, attempt, timed_out=True,
                    error=TaskTimeoutError(
                        f"simulation task exceeded {timeout:.3g}s wall clock"
                    ))
            failed.append(group)
            abandoned = True  # a hung worker may still hold the slot
        except Exception as err:  # worker exception (incl. injected)
            _settle(outcomes, group, attempt, error=err)
            failed.append(group)
        else:
            _settle(outcomes, group, attempt, results=results)
            if emit:
                emit(_batch_event(tasks, group, seconds))
    # A timed-out worker cannot be interrupted; waiting on shutdown
    # would serialize behind the hang.  Abandon the pool (its processes
    # exit once their current task finishes) and let the retry round
    # build a fresh one.
    pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
    return failed, True


def run_supervised(
    tasks: Sequence[SimTask],
    jobs: int = 1,
    policy: Optional[SupervisorPolicy] = None,
    tokens: Optional[Sequence[str]] = None,
    emit: Optional[EmitFn] = None,
) -> List[TaskOutcome]:
    """Run a batch under supervision; one terminal outcome per task.

    The tasks are partitioned by :func:`_group_tasks` and each group is
    one supervised unit: it packs once, runs on the batched core, and
    every member draws its own fault decisions by its own token.  A
    transient failure of any member fails (and retries) the whole
    group.  A group that fails for a non-retryable reason is split into
    groups of one and re-run within the same attempt, so a permanently
    failing point fails alone and its group-mates still simulate.

    Never raises for task failures — each :class:`TaskOutcome` carries
    either a result or the last attempt's error, and the caller decides
    whether to degrade, report, or raise.
    """
    policy = policy or SupervisorPolicy.from_env()
    if tokens is None:
        tokens = [f"task{i}" for i in range(len(tasks))]
    outcomes = [TaskOutcome() for _ in tasks]
    pending = _group_tasks(tasks, jobs)
    pool_ok = jobs > 1
    attempt = 0
    while pending and attempt < policy.max_attempts:
        attempt += 1
        last = attempt >= policy.max_attempts
        retry: List[Group] = []
        groups = pending
        while groups:
            if pool_ok and not last:
                failed, pool_ok = _pool_round(
                    tasks, groups, tokens, outcomes, jobs, attempt,
                    policy.timeout, emit,
                )
                if not pool_ok:
                    # No pool in this environment: the round ran
                    # nothing.  Run it serially without burning the
                    # retry budget on infrastructure that can never work.
                    continue
            else:
                failed = _serial_round(
                    tasks, groups, tokens, outcomes, attempt, emit
                )
            groups = []
            for group in failed:
                out = outcomes[group[0]]
                assert out.error is not None
                _record_fault(out.error, emit)
                retryable = _retryable(out.error)
                split = not retryable and len(group) > 1
                will_retry = not last and retryable
                if emit:
                    reason = _fail_reason(out.error)
                    for i in group:
                        emit(
                            RetryEvent(
                                token=tokens[i],
                                attempt=attempt,
                                reason=reason,
                                final=not (will_retry or split),
                                error=type(out.error).__name__,
                            )
                        )
                if split:
                    groups.extend([i] for i in group)
                elif will_retry:
                    retry.append(group)
        pending = retry
        if pending and policy.backoff > 0:
            time.sleep(policy.backoff * attempt)
    return outcomes
