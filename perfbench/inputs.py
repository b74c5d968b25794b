"""Benchmark inputs: what each seed selects, and the recorded references.

Every batch cell runs one kernel at a scale recorded in
``reference.json``.  A ``characterize`` cell's trace is as close as the
kernel allows to the workload's instruction budget.  A ``timing`` cell
costs about as much host time as the median kernel's Figure 9 cell at
the budget, since Figure 9's cost per instruction differs up to twofold
between kernels and the median of unequal cells would depend on which
kernels a seed drew.

Seed 0 selects the default subsets below; any other seed draws a
stratified subset of :data:`DRAWN` integer and :data:`DRAWN`
floating-point kernels, so a claim can be re-checked on kernels it was
not tuned on.  Per-instruction cost differs up to twofold between
kernels, so the draw is large enough that which kernels it holds moves
the figures by a few percent only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: seed-0 kernels of the ``timing`` workload (3 INT, 3 FP)
TIMING_KERNELS = ("go", "com", "li", "tom", "swm", "aps")
#: seed-0 kernels of the ``characterize`` workload (2 INT, 2 FP)
CHARACTERIZE_KERNELS = ("go", "li", "tom", "swm")

#: kernels of each class a seed other than 0 draws
DRAWN = 6

#: dynamic instructions per cell (``timing``: of the median-cost kernel)
BUDGETS = {"timing": 20_000, "characterize": 50_000}

#: artefacts run per kernel, and the backend each runs on
ARTEFACTS = {
    "timing": (("fig9", None),),
    "characterize": (("fig2", "numpy"), ("fig5", "numpy"),
                     ("fig7", "numpy"), ("fig6", None)),
}

#: the serve workload streams records of this kernel at this scale
SERVE_KERNEL = "li"
SERVE_SCALE = 0.1
#: records the kernel trace is cut into and replayed from
SERVE_CYCLE = 2000


def suite() -> Tuple[List[str], List[str]]:
    """Integer and floating-point kernel names, in paper order."""
    from repro.workloads import fp_workloads, integer_workloads

    return ([w.abbrev for w in integer_workloads()],
            [w.abbrev for w in fp_workloads()])


def kernels(workload: str, seed: int) -> List[str]:
    """The kernels a batch workload runs for ``seed`` (paper order)."""
    default = TIMING_KERNELS if workload == "timing" else CHARACTERIZE_KERNELS
    if seed == 0:
        return list(default)
    integer, floating = suite()
    rng = random.Random(f"{workload}:{seed}")
    drawn = set(rng.sample(integer, DRAWN)) | set(rng.sample(floating, DRAWN))
    return [name for name in integer + floating if name in drawn]


def serve_plan(seed: int) -> Tuple[int, float]:
    """``(record start, send phase)`` of the serve stream for ``seed``.

    The start is where in the recorded kernel stream the sessions begin;
    the phase (a fraction of one send interval) offsets the second
    session's sends against the first's.
    """
    if seed == 0:
        return 0, 0.5
    rng = random.Random(f"serve:{seed}")
    return rng.randrange(SERVE_CYCLE), rng.random()


def row_digest(rows: Sequence) -> str:
    """SHA-256 of the rows' JSON form: equal digests, equal statistics."""
    payload = [dataclasses.asdict(row) for row in rows]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_reference() -> Dict[str, dict]:
    """``{workload: {kernel: {"scale", "insts", "digests"}}}``."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
