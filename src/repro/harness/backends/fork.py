"""The fork backend, and the harness's one process pool.

:func:`run_pool` is the only place ``repro.harness`` creates processes.
Each job runs in its own forked child (:func:`_worker_main`), so a child
that dies — segfault, OOM kill, unhandled exception — fails exactly one
job.  A child that outlives the per-job timeout is sent SIGTERM, then
SIGKILL after ``term_grace`` seconds, so the pool never blocks on an
unkillable child.  Jobs come from a ``backends.base.JobSource``: here
the run's ``pending`` deque, where failed attempts requeue through the
shared key-derived backoff; for the worker backend and ``python -m
repro.harness worker``, the leased work queue
(:class:`repro.harness.worker.QueueSource`).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from typing import List, NamedTuple

from repro.harness.backends.base import (
    BackendConfig,
    ExecutionBackend,
    JobSource,
    RunState,
    stop_process,
)
from repro.harness.jobs import JobSpec, execute_job
from repro.harness.manifest import STATUS_COMPUTED
from repro.harness.store import ResultStore


def _worker_main(spec: JobSpec, key: str, store_root, conn) -> None:
    """Child-process entry: run one job, persist it, report back."""
    start = time.time()
    try:
        rows = execute_job(spec)
        elapsed = time.time() - start
        if store_root is not None:
            ResultStore(store_root).put(key, spec, rows, elapsed)
        conn.send(("ok", rows, elapsed))
    except BaseException:
        conn.send(("err", traceback.format_exc(), time.time() - start))
    finally:
        conn.close()


class _Attempt(NamedTuple):
    job: object
    proc: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    started: float


def run_pool(source: JobSource, config: BackendConfig, store_root) -> None:
    """Run ``source``'s jobs in forked children until it is drained.

    At most ``config.workers`` children are in flight; each is stopped
    after ``config.timeout`` seconds (None: never).  On the way out —
    an exception, or SIGTERM turned into ``SystemExit`` — every child
    still running is stopped and its job handed back to the source.
    """
    ctx = multiprocessing.get_context("fork")
    active: List[_Attempt] = []
    try:
        while active or not source.drained():
            while len(active) < config.workers:
                job = source.next_job()
                if job is None:
                    break
                try:
                    active.append(_launch(ctx, job, store_root))
                except BaseException:
                    source.interrupted(job)
                    raise
            if active:
                multiprocessing.connection.wait(
                    [attempt.conn for attempt in active], timeout=0.05)
            else:
                time.sleep(source.idle)
            active = [attempt for attempt in active
                      if not _reap(source, config, attempt)]
    finally:
        for attempt in active:
            stop_process(attempt.proc, config.term_grace)
            attempt.conn.close()
            source.interrupted(attempt.job)


def _launch(ctx, job, store_root) -> _Attempt:
    recv, send = ctx.Pipe(duplex=False)
    try:
        proc = ctx.Process(target=_worker_main,
                           args=(job.spec, job.key, store_root, send))
        proc.start()
        send.close()
    except BaseException:
        # start() can fail (fork EAGAIN, fd exhaustion); without this
        # both pipe ends leak an fd per failed launch.  close() is
        # idempotent, so the already-closed send end is fine here.
        recv.close()
        send.close()
        raise
    return _Attempt(job, proc, recv, time.time())


def _reap(source: JobSource, config: BackendConfig,
          attempt: _Attempt) -> bool:
    """Check one in-flight attempt; True when it has been resolved."""
    proc = attempt.proc
    # Liveness first: a child that reports and then exits between the
    # two checks must still count as reporting, not as dying.
    alive = proc.is_alive()
    if attempt.conn.poll():
        try:
            message = attempt.conn.recv()
        except EOFError:
            message = None
        proc.join()
    elif alive:
        if (config.timeout is None
                or time.time() - attempt.started <= config.timeout):
            return False
        stop_process(proc, config.term_grace)
        message = ("err", f"timed out after {config.timeout:g}s")
    else:
        message = None
    attempt.conn.close()
    if message is not None and message[0] == "ok":
        source.succeeded(attempt.job, message[1], message[2], proc.pid)
    else:
        error = (message[1] if message else
                 f"worker died without reporting a result "
                 f"(exit code {proc.exitcode})")
        source.failed(attempt.job, error, time.time() - attempt.started,
                      proc.pid)
    return True


class _PendingJob(NamedTuple):
    spec: JobSpec
    key: str
    attempt: int


class _PendingSource(JobSource):
    """The fork backend's jobs: the run's in-memory ``pending`` deque."""

    def __init__(self, backend: ExecutionBackend, state: RunState) -> None:
        self.backend = backend
        self.state = state

    def next_job(self):
        pending = self.state.pending
        # Entries still backing off rotate to the back.
        for _ in range(len(pending)):
            spec, attempts, not_before = pending.popleft()
            if not_before > time.time():
                pending.append((spec, attempts, not_before))
                continue
            return _PendingJob(spec, self.state.keys[spec], attempts)
        return None

    def succeeded(self, job, rows, elapsed, pid) -> None:
        self.state.results[job.spec] = rows
        self.state.records[job.spec] = self.state.record(
            job.spec, job.key, STATUS_COMPUTED, wall_time=elapsed,
            worker=pid, attempts=job.attempt)

    def failed(self, job, error, elapsed, pid) -> None:
        self.backend.fail(self.state, job.spec, job.key, job.attempt,
                          error, elapsed, worker=pid)

    def drained(self) -> bool:
        return not self.state.pending


class ForkBackend(ExecutionBackend):
    """Fan jobs out over forked child processes, at most ``workers``."""

    name = "fork"

    def execute(self, state: RunState) -> None:
        store_root = state.store.root if state.store is not None else None
        run_pool(_PendingSource(self, state), self.config, store_root)
