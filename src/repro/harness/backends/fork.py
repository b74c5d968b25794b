"""The fork backend: one crash-isolated child process per job.

Each cache-miss job runs in its own worker process (``fork`` start
method), so a worker that dies — segfault, OOM kill, unhandled exception
— fails exactly one cell and never takes the sweep down.  Jobs get a
per-job wall-clock timeout; a worker that outlives it is first sent
SIGTERM, and if it ignores that (blocked in C code, masked signals, a
deliberate chaos hang) it is SIGKILLed after ``term_grace`` seconds — the
sweep never blocks on an unkillable child.  Failed attempts requeue
through the shared key-derived backoff (see ``backends.base``).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from typing import List

from repro.harness.backends.base import (
    ExecutionBackend,
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


class _Attempt:
    """Book-keeping for one in-flight worker process."""

    def __init__(self, spec: JobSpec, key: str, attempts: int, proc, conn):
        self.spec = spec
        self.key = key
        self.attempts = attempts
        self.proc = proc
        self.conn = conn
        self.started = time.time()


class ForkBackend(ExecutionBackend):
    """Fan jobs out over forked child processes, at most ``workers``."""

    name = "fork"

    def execute(self, state: RunState) -> None:
        ctx = multiprocessing.get_context("fork")
        store_root = state.store.root if state.store is not None else None
        pending = state.pending
        active: List[_Attempt] = []
        try:
            while pending or active:
                # Scan the queue once per round; entries still backing off
                # rotate to the back without consuming a worker slot.
                for _ in range(len(pending)):
                    if len(active) >= self.config.workers:
                        break
                    spec, attempts, not_before = pending.popleft()
                    if not_before > time.time():
                        pending.append((spec, attempts, not_before))
                        continue
                    recv, send = ctx.Pipe(duplex=False)
                    try:
                        proc = ctx.Process(
                            target=_worker_main,
                            args=(spec, state.keys[spec], store_root, send))
                        proc.start()
                        send.close()
                        active.append(_Attempt(spec, state.keys[spec],
                                               attempts, proc, recv))
                    except BaseException:
                        # start() can fail (fork EAGAIN, fd exhaustion);
                        # without this both pipe ends leak an fd per
                        # failed launch.  close() is idempotent, so the
                        # already-closed send end is fine here.
                        recv.close()
                        send.close()
                        raise
                if active:
                    multiprocessing.connection.wait(
                        [attempt.conn for attempt in active], timeout=0.05)
                else:
                    time.sleep(0.01)  # everything is backing off
                still_active: List[_Attempt] = []
                for attempt in active:
                    if not self._reap(state, attempt):
                        still_active.append(attempt)
                active = still_active
        finally:
            for attempt in active:
                stop_process(attempt.proc, self.config.term_grace)

    def _reap(self, state: RunState, attempt: _Attempt) -> bool:
        """Check one in-flight attempt; True when it has been resolved."""
        spec, key = attempt.spec, attempt.key
        if attempt.conn.poll():
            try:
                message = attempt.conn.recv()
            except EOFError:
                message = None
            attempt.proc.join()
            attempt.conn.close()
            if message is not None and message[0] == "ok":
                _, rows, elapsed = message
                state.results[spec] = rows
                state.records[spec] = state.record(
                    spec, key, STATUS_COMPUTED, wall_time=elapsed,
                    worker=attempt.proc.pid, attempts=attempt.attempts)
            else:
                error = (message[1] if message else
                         f"worker died without reporting a result "
                         f"(exit code {attempt.proc.exitcode})")
                self.fail(state, spec, key, attempt.attempts, error,
                          time.time() - attempt.started,
                          worker=attempt.proc.pid)
            return True
        if not attempt.proc.is_alive():
            attempt.conn.close()
            self.fail(state, spec, key, attempt.attempts,
                      f"worker died without reporting a result "
                      f"(exit code {attempt.proc.exitcode})",
                      time.time() - attempt.started, worker=attempt.proc.pid)
            return True
        if (self.config.timeout is not None
                and time.time() - attempt.started > self.config.timeout):
            stop_process(attempt.proc, self.config.term_grace)
            attempt.conn.close()
            self.fail(state, spec, key, attempt.attempts,
                      f"timed out after {self.config.timeout:g}s",
                      time.time() - attempt.started,
                      worker=attempt.proc.pid)
            return True
        return False
