"""Regenerate ``reference.json``: per-kernel scales and reference digests.

For every kernel of the suite and each batch workload this records the
scale a cell runs the kernel at, the cell's trace length, and one row
digest per (artefact, kernel, scale) cell computed on the *reference*
simulation backend.  The benchmark counts any cell whose rows digest
differently as a failure, so a fast path that changes a simulated
statistic fails it.

After an intended change to simulated results (never to make a failing
benchmark pass), re-record the digests at the committed scales, from the
repository root::

    python3 perfbench/make_reference.py

``--rescale`` picks the scales anew, which changes the workloads (and so
every later comparison): ``characterize`` cells get the scale whose
trace is closest to the instruction budget; ``timing`` cells get the
scale at which their Figure 9 cell costs as much host time as the
median kernel's does at the budget, so that the cells of any kernel
draw cost alike and their median does not depend on which were drawn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402

#: rounds of Figure 9 cells timed per kernel when rescaling ``timing``
COST_ROUNDS = 5


def trace_length(workload, scale: float) -> int:
    return sum(1 for _ in workload.trace(scale=scale))


def budget_scale(workload, budget: int) -> float:
    """The scale (4 decimals) whose trace length is closest to ``budget``."""
    scale = 0.1
    best = None
    for _ in range(5):
        length = trace_length(workload, scale)
        if best is None or abs(length - budget) < abs(best[1] - budget):
            best = (scale, length)
        scale = round(scale * budget / length, 4)
    return best[0]


def cost_scales(workloads, budget: int) -> dict:
    """Scales at which every kernel's Figure 9 cell costs the median
    kernel's budget-sized cell time (kernels interleaved, median of
    :data:`COST_ROUNDS` rounds each, so host drift hits all alike)."""
    from repro.experiments import fig9

    start = {w.abbrev: budget_scale(w, budget) for w in workloads}
    times = {w.abbrev: [] for w in workloads}
    for _ in range(COST_ROUNDS):
        for workload in workloads:
            began = time.perf_counter()
            fig9.run_one(workload.abbrev, start[workload.abbrev])
            times[workload.abbrev].append(time.perf_counter() - began)
    cost = {name: statistics.median(samples)
            for name, samples in times.items()}
    target = statistics.median(cost.values())
    return {name: round(start[name] * target / cost[name], 4)
            for name in start}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rescale", action="store_true",
                        help="pick the per-kernel scales anew")
    args = parser.parse_args()

    from repro.harness.jobs import execute_job, make_job
    from repro.workloads import all_workloads

    workloads = all_workloads()
    old = inputs.load_reference() if not args.rescale else None
    reference = {}
    for name, budget in inputs.BUDGETS.items():
        if old is not None:
            scales = {k: cell["scale"] for k, cell in old[name].items()}
        elif name == "timing":
            scales = cost_scales(workloads, budget)
        else:
            scales = {w.abbrev: budget_scale(w, budget) for w in workloads}
        cells = {}
        for workload in workloads:
            scale = scales[workload.abbrev]
            digests = {}
            for artefact, backend in inputs.ARTEFACTS[name]:
                params = {"backend": "reference"} if backend else None
                rows = execute_job(make_job(artefact, workload.abbrev,
                                            scale, params))
                digests[artefact] = inputs.row_digest(rows)
            cells[workload.abbrev] = {
                "scale": scale, "insts": trace_length(workload, scale),
                "digests": digests}
            print(f"{name} {workload.abbrev} scale={scale} "
                  f"insts={cells[workload.abbrev]['insts']}",
                  file=sys.stderr, flush=True)
        reference[name] = cells
    inputs.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
