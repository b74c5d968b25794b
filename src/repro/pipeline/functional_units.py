"""Issue-bandwidth accounting for the dataflow timing model."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.isa.instructions import OpClass
from repro.pipeline.config import ProcessorConfig


class IssueBandwidth:
    """Allocates issue slots subject to global width and per-class FU limits.

    ``allocate(earliest, opclass)`` returns the first cycle at or after
    ``earliest`` with both a free global issue slot and a free slot of the
    instruction's functional-unit class.

    A class whose limit is at least the issue width can never bind (it
    cannot issue more per cycle than all classes together), so only
    classes with a smaller limit are counted.
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self._width = config.issue_width
        self._global: Dict[int, int] = {}
        self._binding: Dict[OpClass, Tuple[int, Dict[int, int]]] = {
            opclass: (limit, {})
            for opclass, limit in config.fu_limits.items()
            if limit < config.issue_width
        }

    def allocate(self, earliest: int, opclass: OpClass) -> int:
        width = self._width
        used = self._global
        cycle = earliest
        binding = self._binding.get(opclass)
        if binding is None:
            while used.get(cycle, 0) >= width:
                cycle += 1
        else:
            limit, class_counts = binding
            while used.get(cycle, 0) >= width \
                    or class_counts.get(cycle, 0) >= limit:
                cycle += 1
            class_counts[cycle] = class_counts.get(cycle, 0) + 1
        used[cycle] = used.get(cycle, 0) + 1
        return cycle


class BandwidthLimiter:
    """A single-resource per-cycle bandwidth allocator (LSQ ports, commit)."""

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self._counts: Dict[int, int] = {}

    def allocate(self, earliest: int) -> int:
        cycle = earliest
        counts = self._counts
        while counts.get(cycle, 0) >= self.width:
            cycle += 1
        counts[cycle] = counts.get(cycle, 0) + 1
        return cycle
