"""The processor with an integrated cloaking/bypassing mechanism (Figure 8).

Dependence predictions are initiated at decode; the Synonym Rename Table
(in-flight producers) and Synonym File are inspected to locate the
synonym's value; detection, SF and DPNT updates happen at commit.  In this
trace-driven model decode/commit order coincide, so the
:class:`~repro.core.cloaking.CloakingEngine` is driven inline and a
synonym → value-availability-time map plays the role of the SRT/SF pair:

* a predicted **producer store** publishes its value when its data is
  ready (the store need not have executed — that is the point of RAW
  cloaking);
* a predicted **producer load** publishes when its memory access completes
  ("in RAR-based cloaking the value has to be fetched from memory by the
  first load", Section 3.1);
* a predicted **consumer load** with a correct value gives its consumers
  the value at ``max(dispatch + 1, producer publish time)`` — combined
  cloaking + bypassing links consumers directly to the producer;
* a **wrong** value costs according to the recovery policy of Section
  5.6.1: *selective* re-executes the dependent chain once the load's real
  value arrives (a small rescheduling penalty); *squash* flushes and
  refetches from the misspeculated consumer; *oracle* never uses wrong
  values.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import CloakingConfig
from repro.isa.instructions import MEMORY_CLASSES
from repro.pipeline.annotator import TraceAnnotator
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor
from repro.pipeline.recovery import RecoveryPolicy
from repro.trace.records import DynInst


class CloakedProcessor(Processor):
    """The base machine plus cloaking/bypassing.

    The engine comes from the annotator, so machines sharing one and
    configured with equal ``cloaking`` share one engine (see
    :mod:`repro.pipeline.annotator`).
    """

    #: rescheduling penalty (cycles) for selectively re-executed consumers
    SELECTIVE_PENALTY = 1

    def __init__(
        self,
        config: ProcessorConfig = ProcessorConfig(),
        cloaking: CloakingConfig = CloakingConfig(),
        recovery: RecoveryPolicy = RecoveryPolicy.SELECTIVE,
        annotator: Optional[TraceAnnotator] = None,
    ) -> None:
        super().__init__(config, annotator)
        self._cloaking = self.annotator.cloaking(cloaking)
        self.engine = self._cloaking.engine
        self.recovery = recovery
        self._synonym_value_time: Dict[int, int] = {}
        self.speculations_used = 0
        self.misspeculations = 0

    # -- hooks ----------------------------------------------------------------

    def _store_hook(self, inst: DynInst, data_time: int) -> None:
        observed = self._cloaking.observe(inst)
        if observed is not None and observed.producer_synonym is not None:
            self._synonym_value_time[observed.producer_synonym] = data_time

    def _load_value_time(self, inst: DynInst, dispatch: int,
                         value_time: int) -> int:
        observed = self._cloaking.observe(inst)
        outcome = observed.outcome
        effective = value_time

        if outcome.speculated:
            use = True
            if self.recovery == RecoveryPolicy.ORACLE and not outcome.correct:
                use = False
            if use:
                self.speculations_used += 1
                if outcome.correct:
                    publish = self._synonym_value_time.get(
                        observed.consumer_synonym, dispatch)
                    speculative = max(dispatch + 1, publish)
                    if speculative < effective:
                        effective = speculative
                else:
                    self.misspeculations += 1
                    # Misspeculation is signalled when a dependent reads the
                    # wrong value; verification completes with the load.
                    verify = value_time
                    if self.recovery == RecoveryPolicy.SELECTIVE:
                        effective = verify + self.SELECTIVE_PENALTY
                    else:  # SQUASH: flush and refetch from here on
                        effective = verify + self.SELECTIVE_PENALTY
                        self._redirect = max(self._redirect, verify + 1)

        if observed.producer_synonym is not None:
            # A producing load publishes the value it fetched from memory.
            self._synonym_value_time[observed.producer_synonym] = value_time
        return effective

    def _warm_instruction(self, inst: DynInst) -> None:
        super()._warm_instruction(inst)
        if inst.opclass in MEMORY_CLASSES:
            observed = self._cloaking.observe(inst)
            if observed is not None and observed.producer_synonym is not None:
                # Values deposited during functional simulation are simply
                # "available" when timing resumes.
                self._synonym_value_time[observed.producer_synonym] = \
                    self._final_cycle

    # -- reporting -------------------------------------------------------------

    def finalize(self, name: str = ""):
        """Close out the run; attaches cloaking accuracy to ``result.extra``."""
        result = super().finalize(name)
        stats = self.engine.stats
        result.extra.update({
            "cloaking_mode": self.engine.config.mode.value,
            "recovery": self.recovery.value,
            "coverage": stats.coverage,
            "coverage_raw": stats.coverage_raw,
            "coverage_rar": stats.coverage_rar,
            "misspeculation_rate": stats.misspeculation_rate,
            "speculations_used": self.speculations_used,
            "misspeculations": self.misspeculations,
        })
        return result

    def describe(self) -> str:
        return (f"CloakedProcessor(mode={self.engine.config.mode.value}, "
                f"recovery={self.recovery.value})")
