"""The batch workloads: cold harness sweeps, checked against reference rows.

``timing`` runs Figure 9 cells (base machine plus four cloaked machines)
on the inline backend.  ``characterize`` runs Figures 2, 5 and 7 on the
numpy backend plus Figure 6, each cell in its own forked child (fork
backend, one worker).  Every cell goes through ``run_artefacts`` against
a fresh result store, so nothing is served from cache, and every cell's
rows are digested and compared with ``reference.json``.
"""

from __future__ import annotations

import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
from layertrace import clock


@dataclass(frozen=True)
class Cell:
    artefact: str
    kernel: str
    scale: float
    backend: Optional[str]
    insts: int
    digest: str


@dataclass
class Plan:
    """Everything a sweep needs, built during set-up."""

    workload: str
    cells: List[Cell]
    exec_backend: str
    workers: int

    @property
    def insts(self) -> int:
        return sum(cell.insts for cell in self.cells)


@dataclass
class SweepResult:
    wall_s: float
    cell_s: List[float] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    retries: int = 0
    store_bytes: int = 0


def setup(workload: str, seed: int, digests: Optional[Dict] = None) -> Plan:
    """Imports, kernel selection and assembly: the work before cell one.

    ``digests`` overrides the recorded reference digests (the self-test
    corrupts one to prove a mismatch is counted).
    """
    from repro.harness import api  # noqa: F401  (imported as set-up work)
    from repro.workloads import get_workload

    reference = inputs.load_reference()[workload]
    kernels = inputs.kernels(workload, seed)
    cells = []
    for artefact, backend in inputs.ARTEFACTS[workload]:
        if backend is not None:
            from repro.columnar.backend import get_backend

            get_backend(backend)
        for kernel in kernels:
            ref = reference[kernel]
            digest = (digests or {}).get((artefact, kernel),
                                         ref["digests"][artefact])
            cells.append(Cell(artefact, kernel, ref["scale"], backend,
                              ref["insts"], digest))
    for kernel in kernels:
        get_workload(kernel).program(reference[kernel]["scale"])
    if workload == "timing":
        return Plan(workload, cells, "inline", 0)
    return Plan(workload, cells, "fork", 1)


def sweep(plan: Plan, scratch: Path) -> SweepResult:
    """One cold sweep: every cell through the harness, then render."""
    from repro.harness import api
    from repro.harness.jobs import render_rows
    from repro.harness.store import ResultStore

    store = ResultStore(Path(tempfile.mkdtemp(prefix="store-", dir=scratch)))
    rows_by_artefact: Dict[str, list] = {}
    result = SweepResult(wall_s=0.0)
    start = clock()
    for cell in plan.cells:
        params = {"backend": cell.backend} if cell.backend else None
        began = clock()
        outcome = api.run_artefacts(
            [(cell.artefact, cell.scale, params)], [cell.kernel],
            workers=plan.workers, backend=plan.exec_backend, store=store,
            allow_failures=True)
        result.cell_s.append(clock() - began)
        rows = outcome.runs[0].rows
        result.retries += sum(job.attempts - 1
                              for job in outcome.manifest.jobs)
        if not rows or inputs.row_digest(rows) != cell.digest:
            result.failed.append(f"{cell.artefact}/{cell.kernel}")
        rows_by_artefact.setdefault(cell.artefact, []).extend(rows)
    for artefact, rows in rows_by_artefact.items():
        render_rows(artefact, rows)
    result.wall_s = clock() - start
    result.store_bytes = store.size_bytes()
    return result


def summarize(plan: Plan, sweeps: List[SweepResult]) -> Tuple[dict, int, int]:
    """End-to-end figures of the sweeps, plus (attempted, failed) cells.

    ``cell_p50_s`` is the median cell time of each artefact, averaged
    over the artefacts: cells of different figures differ in cost
    threefold, and the median of the pooled times would sit in the gap
    between them and jump from one side to the other.
    """
    by_artefact: Dict[str, List[float]] = {}
    for result in sweeps:
        for cell, seconds in zip(plan.cells, result.cell_s):
            by_artefact.setdefault(cell.artefact, []).append(seconds)
    attempted = len(plan.cells) * len(sweeps)
    failed = sum(len(result.failed) for result in sweeps)
    wall = sum(result.wall_s for result in sweeps)
    return ({"inst_per_s": plan.insts * len(sweeps) / wall,
             "cell_p50_s": statistics.mean(
                 statistics.median(times) for times in by_artefact.values()),
             "cells": attempted},
            attempted, failed)
