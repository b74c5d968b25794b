"""The cycle-level out-of-order processor timing model (paper Section 5.1).

An 8-wide machine with a 128-entry instruction window, a 5-cycle front
end, 1-cycle operand read, the paper's functional-unit latencies, a
128-entry load/store scheduler issuing up to 4 memory operations per cycle
with *naive memory dependence speculation*, the two-level memory hierarchy
of :mod:`repro.memsys`, and the combined branch predictor of
:mod:`repro.predictors.branch`.

The model is trace-driven and dataflow-timed: each committed instruction
is assigned fetch/dispatch/issue/complete/commit times subject to width,
window-occupancy, dependence and latency constraints.  Wrong-path fetch is
modelled as redirect bubbles (the paper's simulator executes wrong paths;
the bubble cost — the dominant effect — is preserved).

:class:`~repro.pipeline.cloaked_processor.CloakedProcessor` adds the
cloaking/bypassing mechanism with the Figure 8 pipeline integration and
the two misspeculation recovery schemes of Section 5.6.1.
:class:`~repro.pipeline.annotator.TraceAnnotator` holds the state that
does not depend on timing — branch predictors and cloaking engines — so
that machines fed one trace can share it.
"""

from repro.pipeline.annotator import TraceAnnotator
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor, SimResult, drive
from repro.pipeline.cloaked_processor import CloakedProcessor
from repro.pipeline.recovery import RecoveryPolicy
from repro.pipeline.store_sets import StoreSetPredictor

__all__ = [
    "ProcessorConfig",
    "Processor",
    "SimResult",
    "drive",
    "CloakedProcessor",
    "RecoveryPolicy",
    "StoreSetPredictor",
    "TraceAnnotator",
]
