"""The ``serve`` workload's client for a ``repro.serve`` server process.

Two ways of loading the server, both checking every non-degraded
committed value-token against the interpreter's ground truth:

* **open loop** (:func:`run_step`): records stream at a constant offered
  rate, split over two sessions driven from this one process.  Sends
  follow a fixed schedule whatever the server does, so a stall shows up
  as latency: every record is timed from when it was *due*, and how late
  the client itself sent is recorded beside it.  :func:`climb` searches
  a fixed ladder of rates for the highest that *passes*: p99 latency
  within :data:`LATENCY_LIMIT_MS`, degraded plus failed records at most
  1% of those sent, and the last response within the latency limit of
  the last due time (no backlog left);
* **closed loop** (:func:`run_cells`): one session per cell streams the
  kernel's record cycle with a bounded number of records in flight.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
from layertrace import clock

HERE = Path(__file__).resolve().parent

SESSIONS = 2
LATENCY_LIMIT_MS = 20.0
MAX_BAD_FRAC = 0.01
#: offered rates (records/s, all sessions together): 5% apart, sized
#: from the capacity measured on a 2-core host
LADDER = tuple(int(round(1000 * 1.05 ** k, -1)) for k in range(0, 80))
#: steps a ladder search is budgeted for: the bisection, plus retries
CLIMB_STEPS = len(LADDER).bit_length() + 3
#: the rate latency and server CPU per record are measured at (about
#: half the capacity), and the rate shedding is reported at
NOMINAL_RATE = 12000
OVERLOAD_RATE = 40000


@dataclass
class Step:
    """What one offered-rate step sent, got back and verified."""

    rate: float
    duration: float
    sent: int = 0
    predicted: int = 0
    degraded: Dict[str, int] = field(default_factory=dict)
    wrong: int = 0
    protocol_errors: int = 0
    unanswered: int = 0
    refused: int = 0
    latencies: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    drain_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.wrong + self.protocol_errors + self.unanswered

    @property
    def degraded_total(self) -> int:
        return sum(self.degraded.values())

    @property
    def p99_ms(self) -> float:
        from repro.serve.loadgen import percentile

        return percentile(self.latencies, 0.99) * 1000.0

    @property
    def passed(self) -> bool:
        bad = self.degraded_total + self.failed + self.refused
        return (self.sent > 0 and self.p99_ms <= LATENCY_LIMIT_MS
                and bad <= MAX_BAD_FRAC * self.sent
                and self.drain_s * 1000.0 <= LATENCY_LIMIT_MS)


class Records:
    """The kernel's records from the seed's start, with ground truth."""

    def __init__(self, seed: int, corrupt: Optional[int] = None) -> None:
        from repro.serve.loadgen import kernel_records

        start, self.phase = inputs.serve_plan(seed)
        base = kernel_records(inputs.SERVE_KERNEL, inputs.SERVE_SCALE,
                              inputs.SERVE_CYCLE, cycle=inputs.SERVE_CYCLE)
        self.lines = [line for line, _, _ in base]
        self.truth = [token for _, _, token in base]
        self.start = start
        if corrupt is not None:
            # self-test hook: a wrong truth token for one load record
            loads = [k for k, token in enumerate(self.truth) if token]
            k = loads[corrupt % len(loads)]
            self.truth[k] = self.truth[k] + "0"

    def __getitem__(self, index: int) -> Tuple[str, Optional[str]]:
        k = (self.start + index) % len(self.lines)
        return self.lines[k], self.truth[k]


class Server:
    """A server process started from :mod:`serve_entry`; with
    ``trace_dir`` it wraps its layers and dumps them there on drain."""

    def __init__(self, scratch: Path,
                 trace_dir: Optional[Path] = None) -> None:
        self.out = scratch / f"server-{os.getpid()}-{id(self)}.json"
        command = [sys.executable, str(HERE / "serve_entry.py"),
                   "--out", str(self.out)]
        if trace_dir is not None:
            command += ["--trace", str(trace_dir)]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("ready "):
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server process so far."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def cpu_s(self) -> float:
        """CPU time the server has run for (nanosecond resolution)."""
        schedstat = Path(f"/proc/{self.proc.pid}/schedstat").read_text()
        return int(schedstat.split()[0]) / 1e9

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and return the server report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if not self.out.exists():
            return {"clean": False, "stats": {}}
        report = json.loads(self.out.read_text(encoding="utf-8"))
        self.out.unlink()
        return report


class _Session:
    """One client session: its connection, wire lines and ground truth."""

    def __init__(self, records: Records, offsets: Sequence[float],
                 first: int) -> None:
        from repro.serve import protocol

        self.offsets = offsets
        self.wire = []
        self.truth = []
        for k in range(len(offsets)):
            line, token = records[first + k]
            self.wire.append(protocol.encode(
                {"t": protocol.MSG_RECORD, "i": k, "r": line}))
            self.truth.append(token)
        self.reader = self.writer = None

    async def open(self, port: int, name: str) -> bool:
        """Connect and say hello; False when the server refuses."""
        from repro.serve import protocol

        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port)
        await protocol.send(self.writer, {"t": protocol.MSG_HELLO,
                                          "proto": protocol.PROTO_VERSION,
                                          "session": name})
        welcome = await protocol.recv(self.reader)
        return welcome is not None and welcome.get("t") == protocol.MSG_WELCOME

    async def drive(self, t0: float, step: Step) -> None:
        """Send on schedule from ``t0``, say bye, collect every reply."""
        from repro.serve import protocol

        due = [t0 + offset for offset in self.offsets]
        pending = set()
        receiver = asyncio.create_task(
            _receive(self.reader, due, self.truth, pending, step))
        writer = self.writer
        k = 0
        while k < len(due):
            now = clock()
            if due[k] > now:
                await asyncio.sleep(due[k] - now)
                continue
            chunk = []
            while k < len(due) and due[k] <= now:
                chunk.append(self.wire[k])
                pending.add(k)
                step.late.append(now - due[k])
                k += 1
            step.sent += len(chunk)
            writer.write(b"".join(chunk))
            await writer.drain()
        await protocol.send(writer, {"t": protocol.MSG_BYE})
        await receiver
        step.unanswered += len(pending)

    async def close(self) -> None:
        if self.writer is None:
            return
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def _receive(reader, due: List[float], truth: List[Optional[str]],
                   pending: set, step: Step,
                   slots: Optional[asyncio.Semaphore] = None) -> None:
    from repro.serve import protocol

    last = 0.0
    while True:
        try:
            message = await protocol.recv(reader)
        except (protocol.ProtocolError, ConnectionError):
            step.protocol_errors += 1
            break
        if message is None or message["t"] == protocol.MSG_GOODBYE:
            break
        index = message.get("i")
        if message["t"] != protocol.MSG_PRED or index not in pending:
            step.protocol_errors += 1
            continue
        pending.discard(index)
        if slots is not None:
            slots.release()
        last = clock()
        step.latencies.append(last - due[index])
        if message.get("degraded"):
            reason = str(message.get("reason"))
            step.degraded[reason] = step.degraded.get(reason, 0) + 1
            continue
        step.predicted += 1
        if truth[index] is not None and message.get("committed") != truth[index]:
            step.wrong += 1
    if due:
        step.drain_s = max(step.drain_s, last - due[-1])


async def _step(port: int, records: Records, rate: float,
                duration: float) -> Step:
    from repro.serve.loadgen import plan_from_phases

    step = Step(rate=rate, duration=duration)
    per_session = rate / SESSIONS
    offsets = [slot.offset for slot in
               plan_from_phases([("step", per_session, duration)])]
    gap = 1.0 / per_session
    sessions = [_Session(records, [o + k * records.phase * gap
                                   for o in offsets],
                         k * len(offsets))
                for k in range(SESSIONS)]
    try:
        opened = []
        for k, session in enumerate(sessions):
            if await session.open(port, f"s{k}"):
                opened.append(session)
            else:
                step.refused += len(session.offsets)
        t0 = clock() + 0.01
        await asyncio.gather(*(session.drive(t0, step)
                               for session in opened))
    finally:
        for session in sessions:
            await session.close()
    return step


async def _cell(port: int, records: Records, window: int, step: Step) -> float:
    from repro.serve import protocol

    session = _Session(records, [0.0] * inputs.SERVE_CYCLE, 0)
    try:
        if not await session.open(port, "cell"):
            step.refused += inputs.SERVE_CYCLE
            return 0.0
        start = clock()
        due = [start] * inputs.SERVE_CYCLE
        pending = set()
        slots = asyncio.Semaphore(window)
        receiver = asyncio.create_task(_receive(
            session.reader, due, session.truth, pending, step, slots))
        for k, wire in enumerate(session.wire):
            await slots.acquire()
            pending.add(k)
            step.sent += 1
            session.writer.write(wire)
            await session.writer.drain()
        await protocol.send(session.writer, {"t": protocol.MSG_BYE})
        await receiver
        step.unanswered += len(pending)
        return clock() - start
    finally:
        await session.close()


def run_cells(port: int, records: Records, duration: float,
              window: int = 32) -> Tuple[List[float], Step]:
    """Serve the kernel's record cycle again and again for ``duration``
    seconds (at least once), closed loop: one session per cell, at most
    ``window`` records in flight.  Returns each cell's wall time and
    what was verified."""
    step = Step(rate=0.0, duration=duration)

    async def cells():
        times = []
        start = clock()
        while not times or clock() - start < duration:
            times.append(await _cell(port, records, window, step))
        return times
    return asyncio.run(cells()), step


def run_step(port: int, records: Records, rate: float,
             duration: float) -> Step:
    """Offer ``rate`` records/s for ``duration`` seconds; verify replies."""
    return asyncio.run(_step(port, records, rate, duration))


def climb(port: int, records: Records,
          duration: float) -> Tuple[Optional[Step], List[Step]]:
    """Bisect the ladder for its highest passing rate.

    A rate that fails is tried once more before it counts as failed, so
    one transient stall on a shared host does not end the search low.
    Returns the highest passing rate's step (None when even the lowest
    rate fails) and every step run.
    """
    passed, failed = -1, len(LADDER)
    best = None
    steps = []
    while failed - passed > 1:
        mid = (passed + failed) // 2
        step = run_step(port, records, LADDER[mid], duration)
        steps.append(step)
        if not step.passed:
            step = run_step(port, records, LADDER[mid], duration)
            steps.append(step)
        if step.passed:
            passed, best = mid, step
        else:
            failed = mid
    return best, steps
