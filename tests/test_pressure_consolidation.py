"""Differential gate for the consolidated pressure/liveness walks.

The per-position pressure walk used to exist three times — in
``opt/minreg.py``, ``verify/allocation.py``, and ad hoc in callers of
``LivenessInfo`` — before being consolidated onto
``LivenessInfo.pressure_profile`` and the shared
``iter_interference_sites``/``BlockPressureTracker`` primitives.  This
suite pins the consolidation: an independent from-scratch
reimplementation of the old walk must agree with the shared primitive
on every suite app and every example fixture, per register class and
in total slots.
"""

import os

import pytest
from hypothesis import given, settings

from repro.cfg import CFG, LivenessInfo
from repro.cfg.liveness import iter_interference_sites
from repro.ptx import RegClass, parse_kernel
from repro.workloads import full_suite, load_workload

from .test_properties import kernel_strategy

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
APPS = sorted(w.abbr for w in full_suite())
EXAMPLES = sorted(
    n for n in os.listdir(EXAMPLES_DIR) if n.endswith(".ptx")
)

DATA_CLASSES = [rc for rc in RegClass if rc is not RegClass.PRED]


def corpus_kernel(target):
    if target.endswith(".ptx"):
        with open(os.path.join(EXAMPLES_DIR, target)) as fh:
            return parse_kernel(fh.read())
    return load_workload(target).kernel


def oracle_profile(liveness, reg_class=None):
    """The pre-consolidation walk, reimplemented independently."""
    profile = []
    for pos, inst in enumerate(liveness.instructions):
        live = set(liveness.live_out[pos])
        live.update(r.name for r in inst.defs())
        if reg_class is None:
            value = sum(
                liveness.dtype_of[n].reg_class.slots for n in live
            )
        else:
            value = sum(
                1 for n in live
                if liveness.dtype_of[n].reg_class is reg_class
            )
        profile.append(value)
    return profile


@pytest.mark.parametrize("target", APPS + EXAMPLES)
def test_profile_matches_oracle(target):
    liveness = LivenessInfo(corpus_kernel(target))
    assert liveness.pressure_profile() == oracle_profile(liveness)
    assert liveness.max_pressure() == max(
        oracle_profile(liveness), default=0
    )


@pytest.mark.parametrize("target", APPS)
def test_per_class_profile_matches_oracle(target):
    liveness = LivenessInfo(corpus_kernel(target))
    for rc in DATA_CLASSES:
        assert liveness.pressure_profile(rc) == oracle_profile(
            liveness, rc
        ), rc


@pytest.mark.parametrize("target", APPS)
def test_interference_sites_cover_every_position(target):
    kernel = corpus_kernel(target)
    liveness = LivenessInfo(kernel, CFG(kernel))
    sites = list(iter_interference_sites(liveness))
    assert [s.pos for s in sites] == list(range(len(liveness.instructions)))
    for site in sites:
        assert site.inst is liveness.instructions[site.pos]
        assert site.live_out == liveness.live_out[site.pos]


def inline_maxlive(kernel):
    """Independent MaxLive oracle: the pre-consolidation per-position
    walk, reimplemented from scratch (slots of live-out plus defs)."""
    liveness = LivenessInfo(kernel)
    peak = 0
    for pos, inst in enumerate(liveness.instructions):
        live = set(liveness.live_out[pos])
        live.update(r.name for r in inst.defs())
        slots = sum(
            liveness.dtype_of[name].reg_class.slots for name in live
        )
        peak = max(peak, slots)
    return peak


class TestMaxLiveAgreement:
    @settings(max_examples=40, deadline=None)
    @given(kernel_strategy())
    def test_static_profile_max_equals_allocator_maxlive(self, kernel):
        liveness = LivenessInfo(kernel)
        profile = liveness.pressure_profile()
        oracle = inline_maxlive(kernel)
        assert max(profile, default=0) == oracle
        assert liveness.max_pressure() == oracle

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_agreement_on_example_corpus(self, name):
        kernel = corpus_kernel(name)
        assert LivenessInfo(kernel).max_pressure() == inline_maxlive(kernel)
