"""The standalone queue worker: lease, fork, store, repeat.

``python -m repro.harness worker --queue DIR --store DIR`` runs this loop
in any process on any host that can see the two directories.  The lease
protocol (:mod:`repro.harness.queue`) lets several workers drain one
queue cooperatively.  A worker holds the lease while the job runs in a
forked child of the fork backend's pool
(:func:`repro.harness.backends.fork.run_pool`), so a job that crashes
its process fails alone, with its exit code.  By default a worker exits
once every queued job has a terminal outcome; with ``keep_alive`` it
keeps polling for new work (start workers first, ``enqueue`` from
anywhere, watch ``status``).
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.harness.backends.base import (
    BackendConfig,
    JobSource,
    retry_backoff_delay,
)
from repro.harness.jobs import JobSpec
from repro.harness.queue import Claim, JobQueue, default_worker_id
from repro.harness.store import ResultStore

#: seconds between queue polls when nothing is claimable
DEFAULT_POLL = 0.05


def poll_delay(worker_id: str, poll: float = DEFAULT_POLL) -> float:
    """This worker's deterministic poll interval, in ``[poll/2, poll)``.

    A fleet started simultaneously (the CI job, a cluster launcher)
    would otherwise poll the queue in lockstep forever — every worker
    sleeps the same ``poll``, wakes at the same instant, and hammers
    the shared directory together.  Hashing the worker id through the
    spec-keyed backoff helper de-phases the fleet while staying fully
    reproducible: the same worker id always polls on the same cadence.
    """
    spec = JobSpec(artefact="harness.worker-poll", workload=worker_id,
                   scale=1.0)
    return retry_backoff_delay(spec, 1, poll)


@dataclass
class WorkerStats:
    """What one worker-loop invocation did."""

    worker_id: str
    claimed: int = 0
    completed: int = 0
    failed: int = 0        # failed attempts (retryable or terminal)
    finalized: int = 0     # jobs this worker marked terminally failed


class QueueSource(JobSource):
    """Pool jobs leased from a :class:`JobQueue`; the drained test
    covers ``keys`` (one run's jobs) or, when None, the whole queue.

    The child puts the rows in the store before :meth:`succeeded` writes
    the ``done`` marker, so the store is never behind the queue.
    """

    def __init__(self, queue: JobQueue, config: BackendConfig,
                 worker_id: Optional[str] = None, *,
                 keys: Optional[Sequence[str]] = None,
                 poll: float = DEFAULT_POLL,
                 max_jobs: Optional[int] = None,
                 keep_alive: bool = False,
                 say: Optional[Callable[[str], None]] = None) -> None:
        self.queue = queue
        self.config = config
        self.stats = WorkerStats(worker_id or default_worker_id())
        self.keys = keys
        self.quota = max_jobs if max_jobs is not None else float("inf")
        self.keep_alive = keep_alive
        self.say = say or (lambda message: None)
        self.idle = poll_delay(self.stats.worker_id, poll)

    def next_job(self) -> Optional[Claim]:
        if self.stats.claimed >= self.quota:
            return None
        claim = self.queue.claim(self.stats.worker_id,
                                 max_attempts=self.config.retries + 1)
        if claim is not None:
            self.stats.claimed += 1
        return claim

    def succeeded(self, claim: Claim, rows, elapsed, pid) -> None:
        self.queue.complete(claim.key, worker=claim.worker, elapsed=elapsed,
                            attempts=claim.attempt)
        self.stats.completed += 1
        self.say(f"{claim.spec.label}: computed ({elapsed:.2f}s)")

    def failed(self, claim: Claim, error, elapsed, pid) -> None:
        # The terminal queue op comes first in each branch: a helper
        # raising before it would strand the lease until TTL expiry.
        self.stats.failed += 1
        retries, backoff = self.config.retries, self.config.retry_backoff
        if claim.attempt >= retries + 1:
            self.queue.finish_failed(claim.key, error=error,
                                     attempts=claim.attempt,
                                     worker=claim.worker)
            self.stats.finalized += 1
            self.say(f"{claim.spec.label}: failed terminally "
                     f"(attempt {claim.attempt}/{retries + 1})")
        else:
            self.queue.release(claim.key, error=error,
                               not_before=time.time() + retry_backoff_delay(
                                   claim.spec, claim.attempt, backoff))
            # deterministic, so recomputing for the log line is exact
            delay = retry_backoff_delay(claim.spec, claim.attempt, backoff)
            self.say(f"{claim.spec.label}: attempt {claim.attempt} failed, "
                     f"retry in {delay:.2f}s")

    def interrupted(self, claim: Claim) -> None:
        # the claim already counted the attempt; hand the lease back
        self.queue.release(claim.key, error="worker interrupted mid-attempt")

    def drained(self) -> bool:
        return self.stats.claimed >= self.quota or (
            not self.keep_alive and not self.queue.remaining(self.keys))


def worker_loop(queue: JobQueue, store: ResultStore, *,
                worker_id: Optional[str] = None,
                retries: int = 1,
                retry_backoff: float = 0.1,
                poll: float = DEFAULT_POLL,
                max_jobs: Optional[int] = None,
                keep_alive: bool = False,
                progress: Optional[Callable[[str], None]] = None
                ) -> WorkerStats:
    """Drain ``queue`` into ``store``, one job (no timeout) at a time.

    A job is tried at most ``retries + 1`` times *in total, across all
    workers* (the attempt count travels in the queue's state sidecar),
    with the shared key-derived retry backoff.  SIGTERM — the fleet
    drain signal — becomes :class:`SystemExit` for the duration of the
    loop, so a worker stopped mid-job stops the job's child and
    *releases its held lease* instead of stranding it until expiry.
    """
    config = BackendConfig(workers=1, retries=retries,
                           retry_backoff=retry_backoff)
    source = QueueSource(queue, config, worker_id, poll=poll,
                         max_jobs=max_jobs, keep_alive=keep_alive,
                         say=progress)

    def _drain(signum, frame):
        raise SystemExit(128 + signal.SIGTERM)

    try:
        previous = signal.signal(signal.SIGTERM, _drain)
    except ValueError:
        previous = None  # not the main thread: rely on the caller's handler
    from repro.harness.backends.fork import run_pool

    try:
        run_pool(source, config, store.root)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return source.stats
