"""Tests for the leased work queue, the worker loop and the worker
execution backend — including the parallel==serial byte-identity
guarantee across all three backends."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments import fig2
from repro.harness import (
    ARTEFACTS,
    ArtefactSpec,
    JobQueue,
    ResultStore,
    run_artefacts,
    worker_loop,
)
from repro.harness.jobs import JobSpec, make_job
from repro.harness.manifest import STATUS_COMPUTED, STATUS_FAILED
from repro.harness.queue import DEFAULT_LEASE_TTL, default_worker_id
from repro.harness.worker import poll_delay

import tests.harness_helpers as helpers

SCALE = 0.02
WORKLOADS = ["li", "com", "swm", "go"]

BOOM = ArtefactSpec("boom", "tests.harness_helpers", "Boom")


def _enqueue(queue, store, workload="li"):
    spec = make_job("fig2", workload, SCALE)
    key = store.key_for(spec)
    queue.enqueue(spec, key)
    return spec, key


# ---------------------------------------------------------------------------
# JobSpec round-trip serialization


class TestJobSpecRoundTrip:
    def test_round_trip_through_json_text(self):
        spec = make_job("fig2", "li", 0.1)
        data = json.loads(json.dumps(spec.to_json()))
        assert JobSpec.from_json(data) == spec

    def test_round_trip_preserves_tuple_params_and_key(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_job("fig5", "go", 0.25,
                        {"sizes": (128, 256), "backend": "numpy"})
        rebuilt = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rebuilt == spec
        assert rebuilt.params_dict == {"sizes": (128, 256),
                                       "backend": "numpy"}
        assert store.key_for(rebuilt) == store.key_for(spec)


# ---------------------------------------------------------------------------
# lease lifecycle


def _claim_and_abandon(queue_root, worker_id):
    """Child-process body: lease a job, then die without finishing it."""
    JobQueue(queue_root).claim(worker_id)


def _drain_victim(queue_root, store_root):
    """Child-process body: run the worker loop until killed."""
    worker_loop(JobQueue(queue_root), ResultStore(store_root),
                worker_id="victim", poll=0.01)


def _in_child(target, *args, deadline=60.0):
    """Return ``target(*args)`` computed in a forked child.

    The child leads its own process group, so the whole group — the
    child and any process it started — is SIGKILLed afterwards.  A child
    that dies before answering, or outlives ``deadline``, fails the test
    instead of taking the test process down or hanging it.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def body():
        os.setpgrp()
        send.send(target(*args))

    proc = ctx.Process(target=body)
    proc.start()
    send.close()
    try:
        if not recv.poll(deadline):
            pytest.fail(f"{target.__name__} still running after "
                        f"{deadline:g}s")
        try:
            return recv.recv()
        except EOFError:
            proc.join(10)
            pytest.fail(f"{target.__name__} died without answering "
                        f"(exit code {proc.exitcode})")
    finally:
        recv.close()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.join()


def _drain_dying_then_healthy(queue_root, store_root):
    """Child body: ``worker_loop`` over a crashing job and a healthy one."""
    queue, store = JobQueue(queue_root), ResultStore(store_root)
    keys = []
    for workload in (helpers.DYING_WORKLOAD, "li"):
        spec = make_job("boom", workload, 1.0)
        keys.append(store.key_for(spec))
        queue.enqueue(spec, keys[-1])
    stats = worker_loop(queue, store, worker_id="w1", retries=1,
                        retry_backoff=0.01, poll=0.01)
    return stats, [queue.outcome(key) for key in keys]


def _hanging_worker_sweep(store_root):
    """Child body: a worker-backend sweep with a SIGTERM-ignoring cell."""
    outcome = run_artefacts(
        [("boom", 1.0)], ["li", helpers.HANGING_WORKLOAD], workers=2,
        retries=0, timeout=1.0, term_grace=0.2, backend="worker",
        store=ResultStore(store_root), allow_failures=True)
    return {record.workload: (record.status, record.error)
            for record in outcome.manifest.jobs}


class TestLeaseLifecycle:
    def test_claim_returns_the_serialized_spec(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        spec, key = _enqueue(queue, store)
        claim = queue.claim("w1")
        assert claim is not None
        assert claim.spec == spec
        assert claim.key == key
        assert claim.attempt == 1
        assert claim.worker == "w1"

    def test_double_lease_is_rejected(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        _enqueue(queue, ResultStore(tmp_path / "s"))
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None  # live lease blocks the claim
        assert queue.stats()["leased"] == 1

    def test_release_allows_reclaim_with_attempt_count(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"))
        first = queue.claim("w1")
        queue.release(key, error="flaky")
        second = queue.claim("w2")
        assert first.attempt == 1
        assert second.attempt == 2

    def test_backoff_window_blocks_claims(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"))
        queue.claim("w1")
        queue.release(key, error="boom", not_before=time.time() + 30)
        assert queue.claim("w2") is None
        assert queue.stats()["backing_off"] == 1

    def test_expired_lease_is_reclaimed(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_ttl=0.05)
        _enqueue(queue, ResultStore(tmp_path / "s"))
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None  # not expired yet
        time.sleep(0.06)
        stolen = queue.claim("w2")
        assert stolen is not None
        assert stolen.attempt == 2  # the dead attempt still counted

    def test_dead_owner_lease_is_taken_over(self, tmp_path):
        """A lease whose owner pid is gone is reclaimable immediately,
        long before its deadline."""
        queue = JobQueue(tmp_path / "q", lease_ttl=DEFAULT_LEASE_TTL)
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"))
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_claim_and_abandon,
                           args=(queue.root, "doomed"))
        proc.start()
        proc.join()
        lease = queue.lease_info(key)
        assert lease is not None and lease["pid"] == proc.pid
        assert lease["deadline"] > time.time()  # far from expiry
        takeover = queue.claim("survivor")
        assert takeover is not None
        assert takeover.attempt == 2

    def test_exhausted_budget_finalizes_as_failed(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_ttl=0.05)
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"))
        queue.claim("w1")
        time.sleep(0.06)
        assert queue.claim("w2", max_attempts=1) is None
        outcome = queue.outcome(key)
        assert outcome["status"] == "failed"
        assert "retry budget exhausted" in outcome["error"]
        assert outcome["attempts"] == 1

    def test_complete_and_re_enqueue_reset(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        spec, key = _enqueue(queue, store)
        claim = queue.claim("w1")
        queue.complete(key, worker=claim.worker, elapsed=0.5,
                       attempts=claim.attempt)
        assert queue.remaining() == []
        assert queue.outcome(key)["status"] == "ok"
        assert queue.claim("w2") is None  # done jobs are never re-leased
        # a fresh enqueue of the same cell resets outcome and retry state
        assert queue.enqueue(spec, key) is False  # job file already known
        assert queue.outcome(key) is None
        assert queue.claim("w2").attempt == 1

    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            JobQueue(tmp_path, lease_ttl=0)


# ---------------------------------------------------------------------------
# the worker loop


class TestWorkerLoop:
    def test_drains_queue_into_store(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        specs = [_enqueue(queue, store, w) for w in ("li", "com")]
        stats = worker_loop(queue, store, worker_id="w1", poll=0.01)
        assert stats.claimed == 2
        assert stats.completed == 2
        assert stats.failed == 0
        for spec, key in specs:
            assert store.get(key) == fig2.run(scale=SCALE,
                                              workloads=[spec.workload])
            outcome = queue.outcome(key)
            assert outcome == {"status": "ok", "worker": "w1",
                               "elapsed": outcome["elapsed"],
                               "attempts": 1, "error": None}

    def test_failing_job_retries_then_finalizes(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        spec = make_job("boom", helpers.RAISING_WORKLOAD, 1.0)
        key = store.key_for(spec)
        queue.enqueue(spec, key)
        stats = worker_loop(queue, store, worker_id="w1", retries=1,
                            retry_backoff=0.01, poll=0.01)
        assert stats.claimed == 2       # original attempt + one retry
        assert stats.failed == 2
        assert stats.finalized == 1
        outcome = queue.outcome(key)
        assert outcome["status"] == "failed"
        assert outcome["attempts"] == 2
        assert "injected failure" in outcome["error"]

    def test_crashing_job_is_finalized_and_the_loop_goes_on(
            self, tmp_path, monkeypatch):
        """A job that kills its process fails with its exit code; the
        worker survives it and completes the next job."""
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)
        stats, (dying, healthy) = _in_child(
            _drain_dying_then_healthy, tmp_path / "q", tmp_path / "s")
        assert dying["status"] == "failed"
        assert "exit code 13" in dying["error"]
        assert dying["attempts"] == 2
        assert healthy["status"] == "ok"
        assert (stats.completed, stats.finalized) == (1, 1)

    def test_worker_exits_immediately_on_empty_queue(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        stats = worker_loop(queue, store, poll=0.01)
        assert stats.claimed == 0

    def test_default_worker_id_is_host_pid(self):
        host, _, pid = default_worker_id().partition(":")
        assert host
        assert int(pid) > 0

    def test_poll_delay_is_deterministic_and_in_range(self):
        for worker_id in ("w1", "w2", "host-3:1234"):
            delay = poll_delay(worker_id, poll=0.05)
            assert delay == poll_delay(worker_id, poll=0.05)
            assert 0.025 <= delay < 0.05

    def test_poll_delay_dephases_a_lockstep_fleet(self):
        delays = {poll_delay(f"worker-{i}") for i in range(16)}
        assert len(delays) > 8  # worker-id hash spreads the wakeups

    def test_sigterm_kill_drill_releases_the_held_lease(self, tmp_path,
                                                        monkeypatch):
        """A worker drained with SIGTERM mid-job hands its lease back on
        the way out: the job is immediately reclaimable by a successor
        (with the attempt counted) instead of stranded until expiry."""
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)
        queue = JobQueue(tmp_path / "q", lease_ttl=DEFAULT_LEASE_TTL)
        store = ResultStore(tmp_path / "s")
        spec = make_job("boom", helpers.SLEEPING_WORKLOAD, 1.0)
        key = store.key_for(spec)
        queue.enqueue(spec, key)
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_drain_victim,
                           args=(queue.root, store.root))
        proc.start()
        try:
            deadline = time.time() + 10
            while queue.lease_info(key) is None:
                assert time.time() < deadline, "worker never claimed"
                time.sleep(0.01)
            time.sleep(0.05)  # let the claim reach the sleeping job body
            os.kill(proc.pid, signal.SIGTERM)
            proc.join(10)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()
                pytest.fail("drained worker did not exit on SIGTERM")
        assert proc.exitcode == 128 + signal.SIGTERM
        assert queue.lease_info(key) is None  # released, not stranded
        successor = queue.claim("successor")
        assert successor is not None
        assert successor.attempt == 2  # the interrupted attempt counted


# ---------------------------------------------------------------------------
# the worker execution backend: byte-identity across backends


class TestBackendParity:
    def test_all_three_backends_render_byte_identical(self, tmp_path):
        serial = fig2.render(fig2.run(scale=SCALE, workloads=WORKLOADS))
        for backend, workers in (("inline", 0), ("fork", 2), ("worker", 2)):
            store = ResultStore(tmp_path / backend)
            outcome = run_artefacts([("fig2", SCALE)], WORKLOADS,
                                    workers=workers, backend=backend,
                                    store=store)
            assert fig2.render(outcome.rows("fig2")) == serial, backend
            assert outcome.manifest.backend == backend

    def test_four_worker_drain_matches_serial(self, tmp_path):
        """The ISSUE's acceptance drill: a 4-worker queue drain of the
        full 18-kernel grid produces a byte-identical report."""
        store = ResultStore(tmp_path / "store")
        outcome = run_artefacts([("fig2", SCALE)], workers=4,
                                backend="worker", store=store)
        assert (fig2.render(outcome.rows("fig2"))
                == fig2.render(fig2.run(scale=SCALE)))
        manifest = outcome.manifest
        assert manifest.backend == "worker"
        assert manifest.computed == 18
        # per-worker attribution: every computed cell names its queue
        # worker as host:pid, and the counts add back up to the total
        for record in manifest.jobs:
            assert record.status == STATUS_COMPUTED
            assert isinstance(record.worker, str) and ":" in record.worker
        assert sum(manifest.by_worker().values()) == 18

    def test_worker_backend_results_are_cache_hits_later(self, tmp_path):
        store = ResultStore(tmp_path)
        run_artefacts([("fig2", SCALE)], ["li", "com"], workers=2,
                      backend="worker", store=store)
        rerun = run_artefacts([("fig2", SCALE)], ["li", "com"], workers=0,
                              store=store)
        assert rerun.manifest.hits == 2
        assert rerun.manifest.computed == 0

    def test_worker_backend_requires_a_store(self):
        with pytest.raises(ValueError, match="requires a result store"):
            run_artefacts([("fig2", SCALE)], ["li"], workers=1,
                          backend="worker", store=None)


class TestWorkerBackendFailures:
    @pytest.fixture(autouse=True)
    def _register_boom(self, monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)

    def test_crashed_and_raising_cells_fail_without_sinking_the_drain(
            self, tmp_path):
        """One cell raises, one SIGKILLs its worker mid-job; both end up
        terminally failed while the healthy cells complete."""
        store = ResultStore(tmp_path)
        outcome = run_artefacts(
            [("boom", 1.0)],
            ["li", helpers.RAISING_WORKLOAD, helpers.DYING_WORKLOAD, "com"],
            workers=2, retries=0, backend="worker", store=store,
            allow_failures=True)
        failed = {record.workload: record
                  for record in outcome.manifest.failed}
        assert set(failed) == {helpers.RAISING_WORKLOAD,
                               helpers.DYING_WORKLOAD}
        assert "injected failure" in failed[helpers.RAISING_WORKLOAD].error
        assert "exit code 13" in failed[helpers.DYING_WORKLOAD].error
        assert [r.abbrev for r in outcome.rows("boom")] == ["li", "com"]
        assert outcome.runs[0].failed == [helpers.RAISING_WORKLOAD,
                                          helpers.DYING_WORKLOAD]

    def test_one_crash_fails_one_cell(self, tmp_path):
        """A single-slot drain survives a cell that kills its process:
        that cell fails with its exit code, every other cell computes."""
        healthy = ["li", "com", "swm", "tom", "ijp", "vor"]
        outcome = run_artefacts(
            [("boom", 1.0)], [helpers.DYING_WORKLOAD] + healthy,
            workers=1, retries=0, backend="worker",
            store=ResultStore(tmp_path), allow_failures=True)
        records = {record.workload: record
                   for record in outcome.manifest.jobs}
        dying = records.pop(helpers.DYING_WORKLOAD)
        assert dying.status == STATUS_FAILED
        assert "exit code 13" in dying.error
        assert {workload: record.status
                for workload, record in records.items()} == {
                    workload: STATUS_COMPUTED for workload in healthy}

    def test_timeout_stops_a_hanging_cell(self, tmp_path):
        """``timeout`` holds on the worker backend too: a cell ignoring
        SIGTERM is killed and failed, the healthy cell computes."""
        records = _in_child(_hanging_worker_sweep, tmp_path, deadline=30.0)
        status, error = records[helpers.HANGING_WORKLOAD]
        assert status == STATUS_FAILED
        assert "timed out" in error
        assert records["li"] == (STATUS_COMPUTED, None)


# ---------------------------------------------------------------------------
# the distributed CLI: enqueue -> worker -> status -> run


class TestQueueCLI:
    def test_enqueue_worker_drain_and_cached_rerun(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        store_dir = str(tmp_path / "store")
        queue_dir = str(tmp_path / "queue")
        scale = str(SCALE)

        assert harness_main(["enqueue", "fig2", "--scale", scale,
                             "--workloads", "li", "com",
                             "--store", store_dir, "--queue", queue_dir]) == 0
        assert "enqueued 2 jobs" in capsys.readouterr().out

        assert harness_main(["worker", "--queue", queue_dir,
                             "--store", store_dir, "--poll", "0.01",
                             "--quiet"]) == 0
        assert "2 completed" in capsys.readouterr().err

        assert harness_main(["status", "--store", store_dir,
                             "--queue", queue_dir]) == 0
        status_out = capsys.readouterr().out
        assert "jobs:       2" in status_out
        assert "done:       2 (0 failed)" in status_out

        # the drained cells are cache hits for the rendering run, and the
        # report matches a direct serial rendering byte for byte
        assert harness_main(["run", "fig2", "--scale", scale,
                             "--workloads", "li", "com",
                             "--store", store_dir, "--workers", "0",
                             "--quiet"]) == 0
        captured = capsys.readouterr()
        serial = fig2.render(fig2.run(scale=SCALE, workloads=["li", "com"]))
        assert captured.out == serial + "\n"
        assert "2 cache hits, 0 computed" in captured.err

        assert harness_main(["clean", "--store", store_dir,
                             "--queue", queue_dir]) == 0
        assert JobQueue(queue_dir).job_keys() == []

    def test_enqueue_skips_cached_cells(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main
        from repro.harness.api import rows_for

        store_dir = str(tmp_path / "store")
        rows_for("fig2", SCALE, ["li"], store=ResultStore(store_dir))
        assert harness_main(["enqueue", "fig2", "--scale", str(SCALE),
                             "--workloads", "li", "com",
                             "--store", store_dir,
                             "--queue", str(tmp_path / "q")]) == 0
        assert "enqueued 1 jobs (1 cache hits skipped)" in (
            capsys.readouterr().out)

    def test_run_exec_backend_worker_end_to_end(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        args = ["run", "fig2", "--scale", str(SCALE),
                "--workloads", "li", "com", "--exec-backend", "worker",
                "--workers", "2", "--store", str(tmp_path), "--quiet"]
        assert harness_main(args) == 0
        out = capsys.readouterr().out
        assert out == fig2.render(fig2.run(scale=SCALE,
                                           workloads=["li", "com"])) + "\n"

    def test_enqueue_unknown_artefact(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        assert harness_main(["enqueue", "nope",
                             "--store", str(tmp_path)]) == 2
        assert "unknown artefact" in capsys.readouterr().err
