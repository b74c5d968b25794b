"""Which public functions of which layer the traced run wraps.

Layers are the reproduction's packages.  Per-cell calls become spans;
per-instruction calls (``feed``, ``observe*``, cache accesses, branch
predictor updates, the interpreter's trace iterator) are aggregated.
A name another module imported by value is patched where that module
looks it up: ``assemble`` in ``repro.workloads.base``,
``materialized_trace`` in the numpy backend, ``parse_record_line`` in
the server.
"""

from __future__ import annotations

import functools
from typing import Optional

from layertrace import Tracer

#: experiment modules whose ``run_one``/``render`` are spans
EXPERIMENTS = ("fig2", "fig5", "fig6", "fig7", "fig9")
#: the SimBackend dependence and locality queries
QUERIES = ("trace_summary", "ddt_profiles", "dependence_pairs",
           "rar_locality", "address_value_locality")


def install(tracer: Tracer, child_dir: Optional[str] = None) -> None:
    """Wrap every traced layer of the batch pipeline (and the harness).

    With ``child_dir`` each forked harness worker drops what it recorded
    before the fork, and writes its own records there when its cell ends.
    """
    import importlib

    from repro.columnar import backend, batch, numpy_backend
    from repro.core import cloaking
    from repro.dependence import detector
    from repro.harness import api, store
    from repro.harness.backends import fork
    from repro.isa import assembler, interpreter
    from repro.memsys import hierarchy
    from repro.pipeline import cloaked_processor, processor
    from repro.predictors import branch
    from repro.workloads import base

    tracer.calibrate()
    tracer.wrap("iterator", "isa", ("isa.runs", "isa.insts"),
                interpreter.Interpreter, "run")
    assemble = tracer.span("assemble", "isa.assembles", assembler.assemble)
    tracer.patch(assembler, "assemble", assemble)
    tracer.patch(base, "assemble", assemble)

    materialize = tracer.span("columnar", "columnar.table_requests",
                              batch.materialized_trace)

    @functools.wraps(batch.materialized_trace)
    def counted_materialize(*args, **kwargs):
        runs = tracer.calls.get("isa.runs", 0)
        table = materialize(*args, **kwargs)
        if tracer.calls.get("isa.runs", 0) > runs:
            tracer.count("columnar.tables_built")
        return table

    tracer.patch(batch, "materialized_trace", counted_materialize)
    tracer.patch(numpy_backend, "materialized_trace", counted_materialize)
    tracer.wrap("aggregate", "columnar", "columnar.batches",
                batch.TraceTable, "from_dyninsts")

    for cls in (backend.ReferenceBackend, numpy_backend.NumPyBackend):
        for name in QUERIES:
            if name in cls.__dict__:
                tracer.wrap("span", "dependence", "dependence.queries",
                            cls, name)
    tracer.wrap("span", "dependence", "dependence.queries",
                detector.DependenceProfiler, "run")

    engine = cloaking.CloakingEngine
    tracer.wrap("aggregate", "core", "core.engines", engine, "__init__")
    tracer.wrap("aggregate", "core", "core.observes", engine, "observe")
    tracer.wrap("aggregate", "core", "core.observes", engine,
                "observe_timing")

    machine = processor.Processor
    tracer.wrap("aggregate", "pipeline", "pipeline.machines", machine,
                "__init__")
    tracer.wrap("aggregate", "pipeline", "pipeline.feeds", machine, "feed")
    tracer.wrap("aggregate", "pipeline", "pipeline.finalizes", machine,
                "finalize")
    tracer.wrap("aggregate", "pipeline", "pipeline.finalizes",
                cloaked_processor.CloakedProcessor, "finalize")

    for name in ("load", "store", "fetch"):
        tracer.wrap("aggregate", "memsys", "memsys.accesses",
                    hierarchy.MemoryHierarchy, name)
    tracer.wrap("aggregate", "predictors", "predictors.branch_observes",
                branch.CombinedPredictor, "observe")

    for name in EXPERIMENTS:
        module = importlib.import_module(f"repro.experiments.{name}")
        tracer.wrap("span", "experiments", "experiments.run_one", module,
                    "run_one")
        tracer.wrap("span", "experiments", "experiments.render", module,
                    "render")

    tracer.wrap("span", "harness", "harness.run_artefacts", api,
                "run_artefacts")
    tracer.wrap("span", "store", "harness.store_put", store.ResultStore,
                "put")
    tracer.wrap("span", "store", "harness.store_get", store.ResultStore,
                "get")
    if child_dir is not None:
        worker_main = fork._worker_main

        @functools.wraps(worker_main)
        def traced_worker_main(*args, **kwargs):
            tracer.reset()
            try:
                return worker_main(*args, **kwargs)
            finally:
                tracer.dump(child_dir)

        tracer.patch(fork, "_worker_main", traced_worker_main)


def install_serve(tracer: Tracer) -> None:
    """Wrap the server's per-record layers (inside the server process)."""
    from repro.core import cloaking
    from repro.serve import server, session

    tracer.calibrate()
    tracer.wrap("aggregate", "serve.parse", "serve.parse", server,
                "parse_record_line")
    tracer.wrap("aggregate_async", "serve", "serve.observe",
                session.SimulationBackend, "observe")
    engine = cloaking.CloakingEngine
    tracer.wrap("aggregate", "core", "core.engines", engine, "__init__")
    tracer.wrap("aggregate", "core", "core.observes", engine,
                "observe_timing")
