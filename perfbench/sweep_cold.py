"""sweep-cold: the Fig 13 path, as ``repro suite`` runs it.

One cold ``evaluate_app`` (CRAT and CRAT-local sharing one set of
baselines) per resource-sensitive app, in seeded order, each on a fresh
memory-only engine with ``jobs=1``, so no app starts with another's
traces or results in memory.  The answers are checked against the
committed ``answers/sweep_cold_fermi.json``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import random
import time
from typing import Dict, List

from repro.bench.runner import evaluate_app
from repro.engine import EvaluationEngine, set_engine
from repro.errors import ReproError
from repro.workloads import RESOURCE_SENSITIVE

from common import (
    BENCH_DIR, CAL_BURSTS_LONG, HostSpeed, gpu_counts_of_results,
)
from outcome import Measured, engine_counters, fixed_work
from tracing import recording

ANSWERS = BENCH_DIR / "answers" / "sweep_cold_fermi.json"
SCHEMES = ("crat", "crat-local", "opttlp", "maxtlp")


@dataclasses.dataclass
class State:
    order: List[str]
    answers: Dict[str, object]
    trace: bool


def setup(seed: int, trace: bool) -> State:
    with open(ANSWERS) as handle:
        answers = json.load(handle)
    order = [w.abbr for w in RESOURCE_SENSITIVE]
    random.Random(seed).shuffle(order)
    return State(order, answers, trace)


def run(state: State, seconds: float) -> Measured:
    """One full sweep (longer than ``seconds`` on every host measured)."""
    evaluate_app.cache_clear()
    counters: Dict[str, float] = {}
    evaluations: Dict[str, object] = {}
    errors: Dict[str, str] = {}
    latencies: List[float] = []
    per_app: Dict[str, float] = {}
    speed = HostSpeed(CAL_BURSTS_LONG)
    speed.mark()
    with recording(state.trace) as tracer:
        start, marked = time.perf_counter(), speed.spent
        for abbr in state.order:
            t0 = time.perf_counter()
            engine = set_engine(EvaluationEngine(jobs=1, disk_cache=""))
            try:
                evaluations[abbr] = evaluate_app(abbr)
            except ReproError as err:
                errors[abbr] = f"{err.kind}: {err}"
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed)
            per_app[f"app.{abbr}.s"] = elapsed
            for name, value in engine_counters(engine).items():
                counters[name] = counters.get(name, 0.0) + value
            speed.mark()
        wall = time.perf_counter() - start - (speed.spent - marked)
    return fixed_work(
        latencies, speed.op_scales(), wall,
        spans=tracer.spans if tracer else None,
        results=evaluations, errors=errors,
        counters={**counters, **per_app},
    )


def answer_row(evaluation) -> Dict[str, object]:
    return {
        "crat": [evaluation.crat.reg, evaluation.crat.tlp],
        "crat_local": [evaluation.crat_local.reg, evaluation.crat_local.tlp],
        "cycles": {s: _cycles(evaluation, s) for s in SCHEMES},
    }


def _cycles(evaluation, scheme: str) -> float:
    if scheme == "crat":
        return evaluation.crat.sim.cycles
    if scheme == "crat-local":
        return evaluation.crat_local.sim.cycles
    return evaluation.baselines[scheme].sim.cycles


def geomean_vs_opttlp(evaluations: Dict[str, object]) -> float:
    logs = [math.log(e.speedup("crat")) for e in evaluations.values()]
    return math.exp(math.fsum(logs) / len(logs))


def compare(rows: Dict[str, object], geomean: float,
            answers: Dict[str, object]) -> List[str]:
    """Every difference from the answer file, one message each."""
    out = []
    for abbr, expected in answers["apps"].items():
        actual = rows.get(abbr)
        if actual != expected:
            out.append(f"{abbr}: expected {expected}, got {actual}")
    if geomean != answers["geomean_crat_vs_opttlp"]:
        out.append(f"geomean: expected {answers['geomean_crat_vs_opttlp']}, "
                   f"got {geomean}")
    return out


def check(state: State, measured: Measured) -> None:
    answers = state.answers
    evaluations = measured.results
    rows = {abbr: answer_row(e) for abbr, e in evaluations.items()}
    geomean = (geomean_vs_opttlp(evaluations)
               if len(evaluations) == len(answers["apps"]) else float("nan"))
    mismatches = compare(rows, geomean, answers)
    wrong = {m.split(":", 1)[0] for m in mismatches}
    measured.failed = len(set(measured.errors) | (wrong - {"geomean"}))
    measured.messages += list(measured.errors.values()) + mismatches
    if "geomean" in wrong:
        measured.correct = False

    # Self-check: a perturbed expected value must be caught.
    perturbed = copy.deepcopy(answers)
    first = sorted(perturbed["apps"])[0]
    perturbed["apps"][first]["cycles"]["crat"] += 1.0
    expected_rows = copy.deepcopy(answers["apps"])
    if not compare(expected_rows, answers["geomean_crat_vs_opttlp"], perturbed):
        measured.correct = False
        measured.messages.append("self-check: perturbed answer not caught")

    sims = [s for e in evaluations.values() for s in (
        e.crat.sim, e.crat_local.sim,
        e.baselines["opttlp"].sim, e.baselines["maxtlp"].sim,
    )]
    measured.counters.update(gpu_counts_of_results(sims))
    measured.counters["gpu.crat_geomean_vs_opttlp"] = (
        geomean if geomean == geomean else 0.0
    )


def cleanup(state: State) -> None:
    """Nothing outlives the run."""
