"""The base out-of-order processor timing model."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, Optional, Sequence

from repro.isa.instructions import CONTROL_CLASSES, OpClass, latency_of
from repro.isa.registers import NUM_REGS
from repro.memsys.hierarchy import MemoryHierarchy
from repro.pipeline.annotator import TraceAnnotator
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.functional_units import BandwidthLimiter, IssueBandwidth
from repro.pipeline.lsq import LoadStoreScheduler
from repro.trace.records import DynInst
from repro.trace.sampling import TIMING, SamplingPlan

# Enum member lookups are slow next to a global read; the per-instruction
# paths compare against these.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


@dataclass
class SimResult:
    """Outcome of one timing simulation."""

    name: str = ""
    instructions: int = 0
    timing_instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    branch_mispredicts: int = 0
    branches: int = 0
    l1d_misses: int = 0
    l1d_accesses: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.timing_instructions / self.cycles if self.cycles else 0.0

    @property
    def branch_accuracy(self) -> float:
        if not self.branches:
            return 1.0
        return 1.0 - self.branch_mispredicts / self.branches

    @property
    def l1d_miss_rate(self) -> float:
        return self.l1d_misses / self.l1d_accesses if self.l1d_accesses else 0.0

    def speedup_over(self, base: "SimResult") -> float:
        """Speedup of this run relative to ``base`` (same instruction stream)."""
        if self.timing_instructions != base.timing_instructions:
            raise ValueError(
                "speedup comparison requires identical instruction streams "
                f"({self.timing_instructions} vs {base.timing_instructions})"
            )
        if not self.cycles:
            raise ValueError("this run has no timing cycles")
        return base.cycles / self.cycles


def drive(machines: Sequence["Processor"], trace: Iterable[DynInst],
          sampling: Optional[SamplingPlan] = None) -> None:
    """Feed one committed instruction stream to every machine in order.

    With an enabled :class:`SamplingPlan`, functional segments update
    caches and branch predictors only (the paper's sampling scheme);
    timing segments, and the whole stream otherwise, are fully simulated.
    """
    if sampling is not None and sampling.enabled:
        for segment in sampling.segments(trace):
            timing = segment.mode == TIMING
            for inst in segment.instructions:
                for machine in machines:
                    machine.feed(inst, timing=timing)
    else:
        for inst in trace:
            for machine in machines:
                machine.feed(inst)


class Processor:
    """Trace-driven, dataflow-timed model of the Section 5.1 base machine.

    Feed the committed instruction stream to :meth:`run`.  Subclasses hook
    :meth:`_load_value_time` to integrate value-speculative mechanisms.

    Branch prediction comes from ``annotator``; machines fed one trace in
    lockstep may share a :class:`TraceAnnotator` so that its predictors
    advance once per instruction for all of them.  By default each
    machine builds its own.
    """

    def __init__(self, config: ProcessorConfig = ProcessorConfig(),
                 annotator: Optional[TraceAnnotator] = None) -> None:
        if annotator is None:
            annotator = TraceAnnotator(config)
        elif not annotator.serves(config):
            raise ValueError("the shared annotator was built for another "
                             "branch predictor or RAS size")
        self.config = config
        self.annotator = annotator
        self.hierarchy = MemoryHierarchy(config.memory)
        self.lsq = LoadStoreScheduler(config, self.hierarchy)
        self._issue = IssueBandwidth(config)
        self._commit_bw = BandwidthLimiter(config.commit_width)
        self._reg_avail = [0] * NUM_REGS
        self._commit_ring: Deque[int] = deque()
        self._last_commit = 0
        self._fetch_cycle = 0
        self._fetch_count = 0
        self._redirect = 0
        self._last_fetch_block = -1
        self._final_cycle = 0
        self._icache_block_shift = \
            config.memory.l1i.block_bytes.bit_length() - 1
        self.result = SimResult()

    # -- public driver -------------------------------------------------------

    def run(self, trace: Iterable[DynInst],
            sampling: Optional[SamplingPlan] = None,
            name: str = "") -> SimResult:
        """Simulate a committed instruction stream; returns the result.

        ``sampling`` is applied as :func:`drive` describes.
        """
        drive([self], trace, sampling)
        return self.finalize(name)

    def feed(self, inst: DynInst, timing: bool = True) -> None:
        """Incremental driving interface (lets harnesses share a trace pass)."""
        if timing:
            self._time_instruction(inst)
        else:
            self._warm_instruction(inst)

    def finalize(self, name: str = "") -> SimResult:
        """Close out the simulation and return the result."""
        self.result.name = name
        self.result.cycles = self._final_cycle
        self.result.l1d_misses = self.hierarchy.l1d.misses
        self.result.l1d_accesses = self.hierarchy.l1d.accesses
        return self.result

    # -- per-instruction timing ----------------------------------------------

    def _time_instruction(self, inst: DynInst) -> None:
        config = self.config
        result = self.result
        result.instructions += 1
        result.timing_instructions += 1

        # ---- fetch ----
        fetch = self._fetch_cycle
        if self._redirect > fetch:
            fetch = self._fetch_cycle = self._redirect
            self._fetch_count = 0
        block = inst.pc >> self._icache_block_shift
        if block != self._last_fetch_block:
            self._last_fetch_block = block
            latency = self.hierarchy.fetch(inst.pc, fetch)
            miss_penalty = latency - config.memory.l1i.hit_latency
            if miss_penalty > 0:
                self._fetch_cycle += miss_penalty
                self._fetch_count = 0
                fetch = self._fetch_cycle
        self._fetch_count += 1
        if self._fetch_count >= config.fetch_width:
            self._fetch_cycle += 1
            self._fetch_count = 0

        # ---- dispatch (enter the window) ----
        dispatch = fetch + config.frontend_depth
        if len(self._commit_ring) >= config.window_size:
            oldest = self._commit_ring.popleft()
            if oldest + 1 > dispatch:
                dispatch = oldest + 1

        # ---- issue ----
        ready = dispatch + 1
        cls = inst.opclass
        if cls is _STORE and len(inst.srcs) > 1:
            # A store issues (and posts its address) as soon as its BASE
            # register is ready; the data register may arrive later and is
            # posted out of order (Section 5.1, rules 3/4).
            issue_srcs = inst.srcs[:1]
        else:
            issue_srcs = inst.srcs
        for src in issue_srcs:
            avail = self._reg_avail[src]
            if avail > ready:
                ready = avail
        issue = self._issue.allocate(ready, cls)

        # ---- execute / memory ----
        if cls is _LOAD:
            addr_time = issue + config.operand_read_cycles
            value_time = self.lsq.schedule_load(
                inst.pc, inst.word_addr, inst.addr, addr_time)
            # Consumers may see the value earlier (cloaking/bypassing), but
            # the load itself completes — and can commit — only when its own
            # memory access (which also verifies speculation) is done.
            consumer_time = self._load_value_time(inst, dispatch, value_time)
            if inst.rd is not None:
                self._reg_avail[inst.rd] = consumer_time
            complete = value_time
            result.loads += 1
        elif cls is _STORE:
            addr_time = issue + config.operand_read_cycles
            # Stores normally carry (base, data) sources; tolerate synthetic
            # records without a data register (value ready at issue).
            data_time = (self._reg_avail[inst.srcs[1]]
                         if len(inst.srcs) > 1 else issue)
            complete = self.lsq.schedule_store(
                inst.pc, inst.word_addr, addr_time, data_time)
            self._store_hook(inst, data_time)
            result.stores += 1
        else:
            complete = issue + latency_of(cls)
            if inst.rd is not None:
                self._reg_avail[inst.rd] = complete
            if cls in CONTROL_CLASSES:
                result.branches += 1
                if not self.annotator.control_predicted(inst):
                    result.branch_mispredicts += 1
                    self._redirect = max(self._redirect, complete + 1)

        # ---- commit (in order, bounded width) ----
        commit_ready = complete + 1
        if commit_ready < self._last_commit:
            commit_ready = self._last_commit
        commit = self._commit_bw.allocate(commit_ready)
        self._last_commit = commit
        self._commit_ring.append(commit)
        if commit > self._final_cycle:
            self._final_cycle = commit
        if cls is _STORE:
            self.lsq.commit_store(inst.addr, commit)

    # -- hooks for the cloaked subclass ---------------------------------------

    def _load_value_time(self, inst: DynInst, dispatch: int,
                         value_time: int) -> int:
        """When a load's value reaches its consumers (hook for cloaking)."""
        return value_time

    def _store_hook(self, inst: DynInst, data_time: int) -> None:
        """Called for every timed store (hook for cloaking producers)."""

    # -- functional warm-up (sampling) ----------------------------------------

    def _warm_instruction(self, inst: DynInst) -> None:
        """Update caches and predictors without advancing timing state."""
        self.result.instructions += 1
        now = self._final_cycle
        block = inst.pc >> self._icache_block_shift
        if block != self._last_fetch_block:
            self._last_fetch_block = block
            self.hierarchy.fetch(inst.pc, now)
        cls = inst.opclass
        if cls is _LOAD:
            self.hierarchy.load(inst.addr, now)
        elif cls is _STORE:
            self.hierarchy.store(inst.addr, now)
        elif cls in CONTROL_CLASSES:
            self.annotator.control_predicted(inst)
