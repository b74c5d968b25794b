"""Shared timing-independent state (``repro.pipeline.annotator``).

Machines fed one trace in lockstep share a :class:`TraceAnnotator`: one
branch predictor/RAS pair for all of them and one cloaking engine per
cloaking config.  Sharing must not change any machine's result.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CloakingConfig
from repro.experiments import fig9
from repro.isa.instructions import OpClass
from repro.pipeline import (
    CloakedProcessor,
    Processor,
    ProcessorConfig,
    TraceAnnotator,
    drive,
)
from repro.pipeline.functional_units import IssueBandwidth
from repro.trace.sampling import SamplingPlan

PLAN = SamplingPlan(timing=1, functional=2, observation=500)

PROCESSOR_CONFIGS = {
    "fig9": ProcessorConfig(),
    "fig10": ProcessorConfig(memory_speculation=False),
}


def _fig9_machines(config, annotator=None):
    """The base machine and the four Figure 9 cloaked machines."""
    return [Processor(config, annotator)] + [
        CloakedProcessor(config, cloaking=CloakingConfig.paper_timing(mode),
                         recovery=recovery, annotator=annotator)
        for _, mode, recovery in fig9.CONFIGS
    ]


def _observable(machine):
    result = machine.result
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "timing_instructions": result.timing_instructions,
        "branches": result.branches,
        "branch_mispredicts": result.branch_mispredicts,
        "l1d_accesses": result.l1d_accesses,
        "l1d_misses": result.l1d_misses,
        "speculations_used": getattr(machine, "speculations_used", None),
        "misspeculations": getattr(machine, "misspeculations", None),
        "extra": result.extra,
    }


class TestSharedMatchesAlone:
    @pytest.mark.parametrize("config_name", sorted(PROCESSOR_CONFIGS))
    @pytest.mark.parametrize("kernel", ["li", "swm"])
    def test_sampled_fig9_machines(self, config_name, kernel, tiny_traces):
        # three 1:2 sampling periods: timing and warm paths both run
        trace = tiny_traces[kernel][:4500]
        config = PROCESSOR_CONFIGS[config_name]

        annotator = TraceAnnotator(config)
        shared = _fig9_machines(config, annotator)
        drive(shared, trace, PLAN)
        for machine in shared:
            machine.finalize(kernel)

        for index, machine in enumerate(shared):
            alone = _fig9_machines(config)[index]
            alone.run(iter(trace), sampling=PLAN, name=kernel)
            assert _observable(machine) == _observable(alone), \
                machine.describe() if index else "base"

        # the sharing actually happened: one engine per mode, and the
        # predictor saw each branch once for all five machines
        assert shared[1].engine is shared[3].engine
        assert shared[2].engine is shared[4].engine
        assert shared[1].engine is not shared[2].engine
        branches = sum(1 for inst in trace if inst.opclass == OpClass.BRANCH)
        assert annotator.branch_predictor.lookups == branches
        assert shared[0].result.branches > 0
        assert any(machine.speculations_used for machine in shared[1:])

    def test_mismatched_predictor_size_is_rejected(self):
        annotator = TraceAnnotator(ProcessorConfig())
        with pytest.raises(ValueError):
            Processor(ProcessorConfig(branch_predictor_entries=1024),
                      annotator)


def _reference_allocate(counts, earliest, opclass, config):
    """Naive allocator: every class counted, every cycle checked."""
    limit = config.fu_limits.get(opclass, config.issue_width)
    cycle = earliest
    while (counts[cycle] >= config.issue_width
           or counts[(opclass, cycle)] >= limit):
        cycle += 1
    counts[cycle] += 1
    counts[(opclass, cycle)] += 1
    return cycle


# few classes over few cycles, so that slots and class limits fill up
_requests = st.lists(
    st.tuples(st.integers(0, 12),
              st.sampled_from([OpClass.IDIV, OpClass.IALU, OpClass.FADD,
                               OpClass.LOAD])),
    max_size=200)


@given(requests=_requests,
       fu_limits=st.sampled_from([{}, {OpClass.IDIV: 1},
                                  {OpClass.IDIV: 1, OpClass.IALU: 3,
                                   OpClass.FADD: 8}]),
       issue_width=st.integers(1, 8))
@settings(max_examples=100)
def test_issue_bandwidth_matches_naive_reference(requests, fu_limits,
                                                 issue_width):
    config = ProcessorConfig(issue_width=issue_width, fu_limits=fu_limits)
    issue = IssueBandwidth(config)
    counts = Counter()
    for earliest, opclass in requests:
        assert issue.allocate(earliest, opclass) == _reference_allocate(
            counts, earliest, opclass, config)
