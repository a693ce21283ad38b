"""service-warm: a closed loop of 2 client connections against a
``repro serve --workers 1`` daemon, as ``repro submit`` reaches it.

One worker, not two: the daemon's workers share one GIL, so two of them
do no more work per second.  With two, a cheap request running beside a
warm ``crat`` waited on GIL switches, and ``latency_p50_ms`` swung
between about 5 and 7.5 ms from run to run (spread 0.33 over 10
seeds); with one, it queues instead (spread 0.09 over 5 seeds).  The
two clients still meet in the queue and in single-flight dedup.

The key set and the job mix are those of the repository's mixed service
stream, ``tools/fleet_smoke.py`` (``build_requests``): ``simulate`` GAU
at TLP 1-6, ``crat`` GAU and ``verify`` GAU, sent 3 : 1 : 1 by job
type.  A warm ``crat`` GAU costs about as much as the ~17 ms warm
``crat`` request measured when this benchmark was planned, so
regalloc/TPSC does about half of the daemon's work.  The seed draws
each client's stream.  Set-up boots the daemon and warms it on every
key, so the simulator layers do almost nothing in the timed window: the
work is transport, the queue, single-flight dedup, per-request
``load_workload`` and ``Kernel.fingerprint``, and regalloc/TPSC for
warm ``crat``.

Every reply must equal the in-process ``service.jobs.execute(prepare(
req))`` of the same request.  ``overloaded`` replies and transport
errors count as failures (the clients never retry).  After the window
the daemon is shut down with a drain while cold requests are in flight,
and its final counters must conserve every accepted request (see
:func:`_conservation`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.engine import EvaluationEngine, set_engine
from repro.errors import ServiceError
from repro.service import jobs as service_jobs
from repro.service.client import ServiceClient
from repro.service.protocol import Request

from common import (
    BENCH_DIR, ROOT, RUN_DIR, HostSpeed, child_environment,
    gpu_counts_of_replies, median, peak_rss_mb, percentile,
)
from outcome import Measured, engine_counters
from tracing import in_window

CLIENTS = 2
#: The timed window is cut into this many slices (see :func:`run`):
#: half-second slices track the host's speed; 5 slices did not.
SLICES = 20
#: ``tools/fleet_smoke.py``'s stream: its unique requests, and the share
#: of each job type in it.
KEYS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    *(("simulate", {"target": "GAU", "tlp": tlp}) for tlp in range(1, 7)),
    ("crat", {"target": "GAU"}),
    ("verify", {"target": "GAU"}),
)
MIX = (("simulate", 3), ("crat", 1), ("verify", 1))
#: Requests in flight at the final drain: cold points the daemon has
#: not seen.  The first runs (a few tenths of a second) while the
#: others are admitted, wait in the queue and are drained.  The last
#: repeats the third, so a deduplicated waiter is drained too.
DRAIN_PROBE = tuple(
    ("simulate", {"target": app, "tlp": 2, "grid": 4})
    for app in ("FDTD", "KMN", "HST", "CFD", "HST")
)


@dataclasses.dataclass
class Daemon:
    proc: subprocess.Popen
    socket: str
    dump: str
    log: str


@dataclasses.dataclass
class State:
    seed: int
    trace: bool
    daemon: Optional[Daemon] = None
    #: Eval requests the daemon accepted during set-up.
    warmed: int = 0


# ----------------------------------------------------------------------
# Daemon lifecycle.
# ----------------------------------------------------------------------
def _spawn(trace: bool) -> Daemon:
    """Start one daemon and wait until it answers ``ping``."""
    RUN_DIR.mkdir(exist_ok=True)
    stem = f"serve-{os.getpid()}"
    # Relative to the checkout root (the daemon's and our cwd): unix
    # socket paths are limited to about 100 bytes.
    socket_path = os.path.relpath(RUN_DIR / f"{stem}.sock", ROOT)
    dump = str(RUN_DIR / f"{stem}.json")
    log = str(RUN_DIR / f"{stem}.log")
    for path in (socket_path, dump, log):
        if os.path.exists(path):
            os.unlink(path)
    cmd = [sys.executable, str(BENCH_DIR / "serve_boot.py"), "--dump", dump]
    if trace:
        cmd.append("--trace")
    cmd += ["--", "--socket", socket_path, "--workers", "1", "--jobs", "1",
            "--log-interval", "0"]
    with open(log, "w") as log_handle:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_environment(),
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=log_handle, text=True)
    daemon = Daemon(proc, socket_path, dump, log)
    deadline = time.monotonic() + 60.0
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode}; "
                               f"see {log}")
        if os.path.exists(socket_path):
            try:
                with ServiceClient(socket_path, timeout=10.0) as client:
                    if client.request_once("ping").get("status") == "ok":
                        return daemon
            except ServiceError:
                pass
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError("daemon did not answer within 60s")
        time.sleep(0.005)


def _mark(daemon: Daemon) -> float:
    """A host-speed mark taken inside the daemon (see ``serve_boot.py``)."""
    daemon.proc.stdin.write("\n")
    daemon.proc.stdin.flush()
    for line in daemon.proc.stdout:
        if line.startswith("mark "):
            return float(line.split()[1])
    raise RuntimeError("daemon closed its output before marking")


def _shutdown(daemon: Daemon) -> Dict[str, object]:
    """Shut the daemon down with a drain; returns its final service
    counters (from its ``service_drained`` log line) and its dump."""
    with ServiceClient(daemon.socket, timeout=60.0) as client:
        reply = client.request_once("shutdown", {"drain": True})
    if reply.get("status") != "ok":
        raise RuntimeError(f"shutdown refused: {reply}")
    daemon.proc.wait(timeout=60.0)
    final = None
    with open(daemon.log) as handle:
        for line in handle:
            if line.startswith("{") and '"service_drained"' in line:
                final = json.loads(line)["stats"]
    with open(daemon.dump) as handle:
        dump = json.load(handle)
    return {"final": final, "dump": dump}


def setup(seed: int, trace: bool) -> State:
    """Boot the daemon (traced when asked) and warm it on every key."""
    state = State(seed, trace)
    state.daemon = _spawn(trace)
    try:
        with ServiceClient(state.daemon.socket, timeout=120.0) as client:
            for job, params in KEYS:
                reply = client.request_once(job, params)
                if reply.get("status") != "ok":
                    raise RuntimeError(f"warm-up {job} {params}: {reply}")
                state.warmed += 1
    except BaseException:
        cleanup(state)
        raise
    return state


def cleanup(state: State) -> None:
    """Stop the daemon if it still runs (a run drains it) and remove its
    files."""
    daemon = state.daemon
    if daemon is None:
        return
    if daemon.proc.poll() is None:
        try:
            _shutdown(daemon)
        except (OSError, RuntimeError, ServiceError,
                subprocess.TimeoutExpired):
            daemon.proc.kill()
            daemon.proc.wait(timeout=30.0)
    daemon.proc.stdin.close()
    daemon.proc.stdout.close()
    for path in (daemon.socket, daemon.dump, daemon.log):
        if os.path.exists(path):
            os.unlink(path)


# ----------------------------------------------------------------------
# The timed window.
# ----------------------------------------------------------------------
#: One request: (key index, latency, reply, error).
Record = Tuple[int, float, Optional[dict], str]


def _client_loop(state: State, index: int, deadline: float,
                 out: List[Record]) -> None:
    rng = random.Random(state.seed * 1000 + index)
    by_job = {job: [i for i, key in enumerate(KEYS) if key[0] == job]
              for job, _ in MIX}
    jobs, weights = zip(*MIX)
    with ServiceClient(state.daemon.socket, timeout=60.0) as client:
        while time.monotonic() < deadline:
            job = rng.choices(jobs, weights)[0]
            key = rng.choice(by_job[job])
            t0 = time.perf_counter()
            try:
                reply = client.request_once(job, KEYS[key][1])
                error = ""
            except ServiceError as err:
                reply, error = None, str(err)
            latency = time.perf_counter() - t0
            out.append((key, latency, reply, error))


def _drain_probe(daemon: Daemon, accepted: int):
    """Send ``DRAIN_PROBE`` on one connection each, one after another
    once the daemon has accepted the previous one (so the first is the
    one the worker runs), and shut the daemon down with a drain
    once it has accepted them all.  Returns their replies (``None`` for
    a lost connection) and :func:`_shutdown`'s result."""
    replies: List[Optional[dict]] = [None] * len(DRAIN_PROBE)

    def send(index: int) -> None:
        job, params = DRAIN_PROBE[index]
        try:
            with ServiceClient(daemon.socket, timeout=120.0) as client:
                replies[index] = client.request_once(job, params)
        except ServiceError:
            pass

    threads = []
    with ServiceClient(daemon.socket, timeout=60.0) as control:
        for index in range(len(DRAIN_PROBE)):
            threads.append(threading.Thread(target=send, args=(index,)))
            threads[-1].start()
            deadline = time.monotonic() + 30.0
            while (control.stats()["service"]["accepted"]
                   < accepted + index + 1
                   and time.monotonic() < deadline):
                time.sleep(0.002)
    drained = _shutdown(daemon)
    for thread in threads:
        thread.join(timeout=120.0)
    return replies, drained


def _slice(state: State, index: int, seconds: float) -> List[Record]:
    """One slice of the window: every client's loop for ``seconds``."""
    per_client: List[List[Record]] = [[] for _ in range(CLIENTS)]
    deadline = time.monotonic() + seconds
    threads = [
        threading.Thread(target=_client_loop, args=(
            state, index * CLIENTS + c, deadline, per_client[c]))
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for chunk in per_client for record in chunk]


def run(state: State, seconds: float) -> Measured:
    """``SLICES`` slices of closed-loop load, ``seconds`` in all.  The
    host speed is marked inside the daemon between slices, while the
    clients and so the daemon are idle, and each slice's times are
    scaled by the marks next to it (``common.HostSpeed``).  Every
    end-to-end value is a median over slices (:func:`_slice_medians`)."""
    daemon = state.daemon
    with ServiceClient(daemon.socket, timeout=60.0) as control:
        before = control.stats()
    speed = HostSpeed(measure=lambda: _mark(daemon))
    speed.mark()
    start, marked = time.monotonic(), speed.spent
    slices = []
    for index in range(SLICES):
        t0 = time.monotonic()
        slices.append((_slice(state, index, seconds / SLICES),
                       time.monotonic() - t0))
        speed.mark()
    end = time.monotonic()
    records = [record for chunk, _ in slices for record in chunk]
    with ServiceClient(daemon.socket, timeout=60.0) as control:
        after = control.stats()
    probe, drained = _drain_probe(daemon, after["service"]["accepted"])

    scales = speed.op_scales()
    raw = _slice_medians(slices, [1.0] * SLICES)
    values = _slice_medians(slices, scales)
    rss = peak_rss_mb(drained["dump"]["maxrss_kb"])
    # The window lasts ``seconds`` by design, so its length is not scaled.
    for out in (raw, values):
        out.update(wall_s=end - start - (speed.spent - marked),
                   peak_rss_mb=rss)
    spans = drained["dump"]["spans"]
    measured = Measured(
        latencies=[r[1] for r in records], attempted=len(records),
        end_to_end=values, raw_end_to_end=raw, scale=median(scales),
        spans=in_window(spans, start, end) if spans is not None else None,
        results={"records": records, "probe": probe,
                 "final": drained["final"]},
    )
    measured.counters.update(_service_counters(before, after, records))
    return measured


def _slice_medians(slices: List[Tuple[List[Record], float]],
                   scales: List[float]) -> Dict[str, float]:
    """Latency percentiles and throughput of each slice at its host-speed
    scale, then the median over slices, so a burst of noise from another
    tenant moves one slice, not the result."""
    per_slice = [
        (percentile([r[1] for r in chunk], 0.50) * scale,
         percentile([r[1] for r in chunk], 0.90) * scale,
         sum(1 for r in chunk if r[2] is not None
             and r[2].get("status") == "ok") / (width * scale))
        for (chunk, width), scale in zip(slices, scales) if chunk
    ]
    return {
        "latency_p50_ms": median([p[0] for p in per_slice]) * 1e3,
        "latency_p90_ms": median([p[1] for p in per_slice]) * 1e3,
        "throughput_rps": median([p[2] for p in per_slice]),
    }


def _delta(before: Dict, after: Dict, key: str) -> float:
    return float(after.get(key, 0) - before.get(key, 0))


def _weighted_p50(latency: Dict[str, Dict], field: str) -> float:
    total = sum(w["count"] for w in latency.values())
    if not total:
        return 0.0
    return sum(w[field] * w["count"] for w in latency.values()) / total


def _service_counters(before, after, records) -> Dict[str, float]:
    engine_before = engine_counters(before["engine"]["stats"])
    engine_after = engine_counters(after["engine"]["stats"])
    service = after["service"]
    # The client's per-job-type median round trip, weighted the way the
    # daemon's per-job windows are, so the two subtract.
    by_job: Dict[str, List[float]] = {}
    for key, latency, _, _ in records:
        by_job.setdefault(KEYS[key][0], []).append(latency)
    roundtrip = _weighted_p50(
        {job: {"p50": median(lat), "count": len(lat)}
         for job, lat in by_job.items()}, "p50")
    server = _weighted_p50(service["latency"], "p50")
    out = {name: engine_after[name] - engine_before[name]
           for name in engine_after}
    out.update({
        "service.roundtrip_s": roundtrip,
        "service.server_s": server,
        "service.queue_wait_s": _weighted_p50(service["latency"], "queue_p50"),
        "service.transport_s": roundtrip - server,
        "service.dedup_hits": _delta(before["service"], service, "dedup_hits"),
        "service.rejected_overloaded": _delta(
            before["service"], service, "rejected_overloaded"),
    })
    return out


# ----------------------------------------------------------------------
# Checks (after the daemon has drained).
# ----------------------------------------------------------------------
def _references() -> List[Dict[str, object]]:
    """In-process ``execute(prepare(req))`` of every key on a fresh
    engine, JSON-normalized the way the wire normalizes it."""
    set_engine(EvaluationEngine(jobs=1, disk_cache=""))
    return [
        json.loads(json.dumps(service_jobs.execute(service_jobs.prepare(
            Request(job=job, params=dict(params))
        ))))
        for job, params in KEYS
    ]


def _perturbed(value):
    """A copy of a reply payload with its first number changed by 1."""
    if isinstance(value, dict):
        out = dict(value)
        for key in sorted(out):
            changed = _perturbed(out[key])
            if changed != out[key]:
                out[key] = changed
                return out
        return out
    if isinstance(value, list):
        for index, item in enumerate(value):
            changed = _perturbed(item)
            if changed != item:
                return value[:index] + [changed] + value[index + 1:]
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value + 1
    return value


def _conservation(state: State, final: Dict[str, int],
                  replies: List[Optional[dict]]) -> List[str]:
    """Check the drain's accounting against the replies the clients got.

    Each accepted request gets one reply: an answer (``ok`` or a job
    ``error``), ``expired`` or ``drained``.  So, counting every waiter
    of a deduplicated job in exactly one term, ``accepted == answered +
    expired + drained``, with ``answered`` counted at the clients
    (warm-up, window and drain probe) and ``expired`` and ``drained``
    from the daemon, which must also match the clients' counts."""
    seen: Dict[str, int] = {}
    for reply in replies:
        status = reply.get("status") if reply is not None else "lost"
        seen[status] = seen.get(status, 0) + 1
    answered = state.warmed + seen.get("ok", 0) + seen.get("error", 0)
    out = []
    if seen.get("lost"):
        out.append(f"conservation: {seen['lost']} replies lost")
    total = answered + final["expired"] + final["drained"]
    if final["accepted"] != total:
        out.append(
            f"conservation: accepted {final['accepted']} != answered "
            f"{answered} + expired {final['expired']} + drained "
            f"{final['drained']}")
    for term in ("expired", "drained"):
        if final[term] != seen.get(term, 0):
            out.append(f"conservation: the daemon counts {term} "
                       f"{final[term]}, the clients got {seen.get(term, 0)}")
    return out


def check(state: State, measured: Measured) -> None:
    records = measured.results["records"]
    probe = measured.results["probe"]
    final = measured.results["final"]
    try:
        expected = _references()
    except Exception as err:  # noqa: BLE001 -- every op is then unchecked
        measured.failed = measured.attempted
        measured.messages.append(
            f"reference evaluation failed: {type(err).__name__}: {err}")
        return
    failed = 0
    # One modelled result per key answered: the window's length sets
    # how many replies there are, so summing every reply would not
    # repeat across runs.
    sims: Dict[int, Dict[str, object]] = {}
    for key, _, reply, error in records:
        job, params = KEYS[key]
        if reply is None or reply.get("status") != "ok":
            failed += 1
            measured.messages.append(
                f"{job} {params}: {error or reply.get('status')}")
            continue
        result = reply.get("result")
        if result != expected[key]:
            failed += 1
            measured.messages.append(f"{job} {params}: differs from in-process")
            continue
        if job == "simulate":
            sims[key] = result
        elif job == "crat":
            sims[key] = result["sim"]
    measured.counters.update(gpu_counts_of_replies(sims.values()))

    # The drain: the probe's requests are answered or drained, and the
    # daemon's final counters conserve every accepted request.  A
    # violation counts as one failure.
    problems = [f"drain probe: {reply}" for reply in probe
                if reply is not None
                and reply.get("status") not in ("ok", "drained")]
    if final is None:
        problems.append("no service_drained record from the daemon")
    else:
        replies = [r[2] for r in records] + probe
        problems += _conservation(state, final, replies)
        if not final["drained"]:
            measured.messages.append(
                "drain probe: every probe request ran before the drain")
        # Self-check: a miscounted drain must be caught.
        if not _conservation(state, dict(final, drained=final["drained"] + 1),
                             replies):
            measured.correct = False
            measured.messages.append("self-check: miscount not caught")
        # DESIGN.md section 7 states the law with the job-level
        # ``completed``; deduplicated waiters make it fail (reported,
        # not counted: the per-waiter form above is what is checked).
        literal = final["completed"] + final["expired"] + final["drained"]
        if final["accepted"] != literal:
            measured.messages.append(
                f"known defect: accepted {final['accepted']} != completed "
                f"+ expired + drained = {literal} "
                f"({final['dedup_hits']} deduplicated waiters)")
    if problems:
        failed += 1
        measured.messages += problems
    measured.failed = failed

    # Self-check: a perturbed expected reply must be caught.
    for reference in expected:
        if _perturbed(reference) == reference:
            measured.correct = False
            measured.messages.append("self-check: perturbed reply not caught")
