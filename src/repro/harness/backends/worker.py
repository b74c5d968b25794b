"""The worker backend: queue-drain execution over the shared store.

``execute`` serializes every pending job into a persistent
:class:`~repro.harness.queue.JobQueue` (default ``<store>/queue``) and
drains it with the fork backend's pool over a
:class:`~repro.harness.worker.QueueSource`: ``workers`` slots, one
forked child per leased job, with the fork backend's crash isolation,
timeout and kill escalation.  *External* workers (``python -m
repro.harness worker`` on any host sharing the directories) can join the
drain at any point; with ``workers=0`` it relies on them entirely.
Results come back through the store, so the report is byte-identical to
inline and fork execution of the same grid.
"""

from __future__ import annotations

from typing import List, Optional

from repro.harness.backends.base import ExecutionBackend, RunState
from repro.harness.backends.fork import run_pool
from repro.harness.jobs import JobSpec
from repro.harness.manifest import STATUS_COMPUTED, STATUS_FAILED
from repro.harness.queue import DEFAULT_LEASE_TTL, JobQueue
from repro.harness.worker import QueueSource


class WorkerBackend(ExecutionBackend):
    """Drain jobs through a leased work queue shared with other workers."""

    name = "worker"

    def __init__(self, config, queue_dir=None,
                 lease_ttl: Optional[float] = None) -> None:
        super().__init__(config)
        self.queue_dir = queue_dir
        self.lease_ttl = lease_ttl if lease_ttl is not None else (
            DEFAULT_LEASE_TTL)

    def execute(self, state: RunState) -> None:
        if state.store is None:
            raise ValueError(
                "the worker backend requires a result store: completed "
                "jobs hand their rows over through it")
        queue_root = (self.queue_dir if self.queue_dir is not None
                      else state.store.root / "queue")
        queue = JobQueue(queue_root, lease_ttl=self.lease_ttl)

        ordered: List[JobSpec] = []
        while state.pending:
            spec, _attempts, _not_before = state.pending.popleft()
            queue.enqueue(spec, state.keys[spec])
            ordered.append(spec)
        if not ordered:
            return

        keys = [state.keys[spec] for spec in ordered]
        run_pool(QueueSource(queue, self.config, keys=keys), self.config,
                 state.store.root)
        self._collect(state, queue, ordered)

    def _collect(self, state: RunState, queue: JobQueue,
                 ordered: List[JobSpec]) -> None:
        for spec in ordered:
            key = state.keys[spec]
            outcome = queue.outcome(key)
            if outcome is None:
                state.records[spec] = state.record(
                    spec, key, STATUS_FAILED,
                    attempts=0,
                    error="queue drain incomplete: no terminal outcome "
                          "(the job was re-enqueued during the drain)")
                continue
            attempts = int(outcome.get("attempts", 1))
            worker = outcome.get("worker")
            if outcome.get("status") != "ok":
                state.records[spec] = state.record(
                    spec, key, STATUS_FAILED,
                    wall_time=float(outcome.get("elapsed", 0.0)),
                    worker=worker, attempts=attempts,
                    error=outcome.get("error") or "failed on a worker")
                continue
            rows = state.store.get(key)
            if rows is None:
                state.records[spec] = state.record(
                    spec, key, STATUS_FAILED, worker=worker,
                    attempts=attempts,
                    error="queue marked the job done but its object is "
                          "missing from the store (quarantined or "
                          "deleted)")
                continue
            state.results[spec] = rows
            state.records[spec] = state.record(
                spec, key, STATUS_COMPUTED,
                wall_time=float(outcome.get("elapsed", 0.0)),
                worker=worker, attempts=attempts)
