"""The ``numpy`` columnar backend: vectorized stages over record batches.

:class:`NumPyBackend` subclasses
:class:`~repro.columnar.backend.ReferenceBackend` and overrides only the
queries that pay for their code when cold (see ``docs/columnar.md``):

* **decode → execute** — :func:`repro.columnar.batch.materialized_trace`
  runs the reference interpreter once per ``(workload, scale, cap)`` and
  caches the columnar :class:`~repro.columnar.batch.TraceTable`; every
  query below is an array pass over that table.
* **dependence** — :func:`repro.columnar.kernels.ddt_dependences` over
  the memory-access subsequence (sorted per-word index arrays + the
  shared LRU stack-distance kernel): Figure 5 profiles and the
  default-shape dependence pair sets.
* **locality** — :func:`repro.columnar.kernels.mru_hits_within` for the
  Figure 2 recency histogram.

Everything else is the inherited reference code, which interprets the
workload itself and never touches the table cache:

* Figure 7 (``address_value_locality``).  Its cloaking engine (the
  predict stage) is per-instruction whatever the backend, and feeding
  it from a replay of the materialized table made the whole cell slower
  than plain interpretation when cold.
* DDT configurations outside the vectorizable shape (split tables,
  ``record_loads=False``, ``record_all_loads=True``,
  ``touch_on_hit=False``, set-associative ways).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.columnar.backend import (
    DependencePair,
    RARLocalityResult,
    ReferenceBackend,
    TraceSummary,
)
from repro.columnar.batch import TraceTable, materialized_trace
from repro.columnar.kernels import (
    KIND_RAR,
    KIND_RAW,
    _is_default_config,
    ddt_dependences,
    mru_hits_within,
)
from repro.dependence.ddt import DDTConfig
from repro.dependence.detector import DependenceProfile
from repro.trace.records import DynInst
from repro.workloads.base import Workload

_KIND_NAME = {KIND_RAW: "RAW", KIND_RAR: "RAR"}


class NumPyBackend(ReferenceBackend):
    """Vectorized Figure 2/5 queries; the reference code for the rest."""

    name = "numpy"

    # -- decode → execute ------------------------------------------------

    def table(self, workload: Workload, scale: float = 1.0,
              max_instructions: Optional[int] = None) -> TraceTable:
        """The materialized (cached) columnar trace."""
        return materialized_trace(workload, scale, max_instructions)

    def stream(self, workload: Workload, scale: float = 1.0,
               max_instructions: Optional[int] = None) -> Iterator[DynInst]:
        """The table's round trip (what ``columnar.diff`` checks)."""
        return self.table(workload, scale, max_instructions).to_dyninsts()

    def trace_summary(self, workload: Workload, scale: float = 1.0,
                      max_instructions: Optional[int] = None) -> TraceSummary:
        return TraceSummary(
            *self.table(workload, scale, max_instructions).counts())

    # -- dependence ------------------------------------------------------

    def ddt_profiles(self, workload: Workload, scale: float,
                     sizes: Sequence[Optional[int]],
                     max_instructions: Optional[int] = None
                     ) -> List[DependenceProfile]:
        table = self.table(workload, scale, max_instructions)
        mem = np.nonzero(table.is_mem)[0]
        word = table.word_addr()[mem]
        is_store = table.is_store[mem]
        loads = int(np.count_nonzero(~is_store))
        by_size = ddt_dependences(word, is_store, list(sizes))
        profiles = []
        for size in sizes:
            kind, _ = by_size[size]
            profiles.append(DependenceProfile(
                config=DDTConfig(size=size),
                loads=loads,
                raw_loads=int(np.count_nonzero(kind == KIND_RAW)),
                rar_loads=int(np.count_nonzero(kind == KIND_RAR)),
            ))
        return profiles

    def dependence_pairs(self, workload: Workload, scale: float,
                         config: Optional[DDTConfig] = None,
                         max_instructions: Optional[int] = None
                         ) -> Set[DependencePair]:
        config = config if config is not None else DDTConfig()
        if not _is_default_config(config):
            return super().dependence_pairs(workload, scale, config,
                                            max_instructions)
        table = self.table(workload, scale, max_instructions)
        mem = np.nonzero(table.is_mem)[0]
        word = table.word_addr()[mem]
        is_store = table.is_store[mem]
        kind, source = ddt_dependences(word, is_store, [config.size])[config.size]
        detected = np.nonzero(source >= 0)[0]
        sink_pc = table.pc[mem[detected]]
        source_pc = table.pc[mem[source[detected]]]
        kinds = kind[detected]
        words = word[detected]
        return {
            (_KIND_NAME[k], int(src), int(snk), int(w))
            for k, src, snk, w in zip(
                kinds.tolist(), source_pc.tolist(), sink_pc.tolist(),
                words.tolist())
        }

    # -- locality --------------------------------------------------------

    def rar_locality(self, workload: Workload, scale: float, max_n: int,
                     windows: Dict[str, Optional[int]],
                     max_instructions: Optional[int] = None
                     ) -> Dict[str, RARLocalityResult]:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        table = self.table(workload, scale, max_instructions)
        mem = np.nonzero(table.is_mem)[0]
        word = table.word_addr()[mem]
        is_store = table.is_store[mem]
        pc = table.pc[mem]
        by_size = ddt_dependences(word, is_store, list(windows.values()))
        results: Dict[str, RARLocalityResult] = {}
        for label, window in windows.items():
            kind, source = by_size[window]
            rar = np.nonzero(kind == KIND_RAR)[0]
            hits = mru_hits_within(pc[rar], pc[source[rar]], max_n)
            results[label] = RARLocalityResult(
                window=label,
                sink_loads=int(rar.size),
                hits_within=[int(h) for h in hits],
            )
        return results


# re-exported for the differential checker's golden side
__all__ = ["NumPyBackend", "ReferenceBackend"]
