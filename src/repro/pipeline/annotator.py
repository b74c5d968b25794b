"""Timing-independent state shared by the machines that time one trace.

Every machine of a Figure 9 cell is fed the same committed instruction
stream, and part of what a machine does with an instruction does not
depend on when the instruction is timed:

* the combined branch predictor and the return-address stack see the
  outcome of each control instruction, in trace order;
* a :class:`~repro.core.cloaking.CloakingEngine` sees each load and store
  in trace order, so machines with equal
  :class:`~repro.core.config.CloakingConfig` replay identical engine
  streams (they differ only in how they recover from a misspeculation).

A :class:`TraceAnnotator` owns one predictor/RAS pair and one engine per
distinct cloaking config.  It advances each of them at most once per
instruction by remembering the last instruction object it saw, and hands
the remembered result to every later machine fed that same object.
Machines sharing one must therefore be fed one stream in lockstep, as
:func:`~repro.pipeline.processor.drive` does.

Caches, write buffers and the load/store scheduler stay per machine: a
load reads the cache only when no older in-flight store forwards to it,
whether one does depends on timing, and write buffers drain by time.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.cloaking import CloakingEngine, ObservedAccess
from repro.core.config import CloakingConfig
from repro.isa.instructions import OpClass
from repro.pipeline.config import ProcessorConfig
from repro.predictors.branch import CombinedPredictor, ReturnAddressStack
from repro.trace.records import DynInst

_BRANCH = OpClass.BRANCH
_CALL = OpClass.CALL
_RETURN = OpClass.RETURN


class CloakingStream:
    """One cloaking engine, advanced at most once per instruction."""

    __slots__ = ("engine", "_inst", "_observed")

    def __init__(self, config: CloakingConfig) -> None:
        self.engine = CloakingEngine(config)
        self._inst: Optional[DynInst] = None
        self._observed: Optional[ObservedAccess] = None

    def observe(self, inst: DynInst) -> Optional[ObservedAccess]:
        """The engine's :meth:`~CloakingEngine.observe_timing` of ``inst``."""
        if inst is not self._inst:
            self._inst = inst
            self._observed = self.engine.observe_timing(inst)
        return self._observed


class TraceAnnotator:
    """Branch prediction and cloaking for every machine timing one trace.

    Each :class:`~repro.pipeline.processor.Processor` builds a private one
    unless it is handed one to share.
    """

    def __init__(self, config: ProcessorConfig = ProcessorConfig()) -> None:
        self.branch_predictor = CombinedPredictor(config.branch_predictor_entries)
        self.ras = ReturnAddressStack(config.ras_depth)
        self._predictor_shape = (config.branch_predictor_entries,
                                 config.ras_depth)
        self._streams: Dict[CloakingConfig, CloakingStream] = {}
        self._control_inst: Optional[DynInst] = None
        self._control_predicted = True

    def serves(self, config: ProcessorConfig) -> bool:
        """Whether a machine with ``config`` may share these predictors."""
        return self._predictor_shape == (config.branch_predictor_entries,
                                         config.ras_depth)

    def cloaking(self, config: CloakingConfig) -> CloakingStream:
        """The engine stream for ``config``, created on first request."""
        stream = self._streams.get(config)
        if stream is None:
            stream = self._streams[config] = CloakingStream(config)
        return stream

    def control_predicted(self, inst: DynInst) -> bool:
        """Whether the front end predicted where control instruction
        ``inst`` goes.

        Conditional branches consult the combined predictor and returns
        the RAS; calls push their return address.  Direct jumps and calls
        have decode-time targets, so they are always predicted.
        """
        if inst is not self._control_inst:
            self._control_inst = inst
            cls = inst.opclass
            if cls is _BRANCH:
                predicted = self.branch_predictor.observe(inst.pc, inst.taken)
            elif cls is _RETURN:
                predicted = self.ras.predict_and_pop(inst.target_pc)
            else:
                if cls is _CALL:
                    self.ras.push(inst.pc + 4)
                predicted = True
            self._control_predicted = predicted
        return self._control_predicted
