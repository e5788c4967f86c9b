"""Launching the deployed server and driving its HTTP edge.

The server is started exactly as it is deployed: ``python -m repro serve``
with deployment flags only (``--data``, ``--host``, ``--port 0``,
``--warm-up``, and ``--data-dir`` for the durable workload), an environment
with every ``MAPRAT_*`` variable removed, and its own process group.  It is
stopped with SIGINT, which takes the CLI's ``KeyboardInterrupt`` ->
``server.stop()`` path; anything that does not exit in time is killed with
its whole process group.

Connections are plain keep-alive ``http.client`` connections, one thread
each.  Responses are kept as raw bytes and checked after the timed window,
so the client spends as little CPU as possible while the server is measured.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

from workloads import BATCH_PERIOD_S, COMPACT, COMPACT_EVERY, WARM_ANCHORS, Request

HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
HTTP_TIMEOUT_S = 20.0
POLL_INTERVAL_S = 0.05
#: Header naming the benchmark operation a request belongs to; the traced
#: launcher uses it as the span tree's request id.
OP_HEADER = "X-Perfbench-Op"


class BenchmarkError(Exception):
    """A failure that voids the run (the server did not start or stop)."""


@dataclass
class Op:
    """One request as sent and answered (``status`` is None when the connection dropped)."""

    request: Request
    op_id: str
    index: int
    status: Optional[int]
    seconds: float
    payload: bytes
    sent_at: float
    lateness: float = 0.0
    #: The parsed JSON answer, set by the run's output checks.
    body: object = None


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after a drop."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, request: Request, op_id: str = "", index: int = 0) -> Op:
        headers = {OP_HEADER: op_id} if op_id else {}
        if request.body is not None:
            headers["Content-Type"] = "application/json"
        if self._conn is None:
            self._conn = http.client.HTTPConnection(HOST, self.port, timeout=HTTP_TIMEOUT_S)
        sent = time.perf_counter()
        try:
            self._conn.request(request.method, request.path, body=request.body, headers=headers)
            response = self._conn.getresponse()
            payload = response.read()
            status: Optional[int] = response.status
        except (OSError, http.client.HTTPException):
            self.close()
            status, payload = None, b""
        return Op(request, op_id, index, status, time.perf_counter() - sent, payload, sent)

    def get_json(self, path: str) -> dict:
        return json.loads(self.get_text(path))

    def get_text(self, path: str) -> str:
        op = self.call(Request("GET", path, path))
        if op.status != 200:
            raise BenchmarkError(f"GET {path} answered {op.status}")
        return op.payload.decode("utf-8")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


_PR_SET_PDEATHSIG = 1


def _die_with_parent_hook():
    """A ``preexec_fn`` that has the kernel SIGKILL the server if this process dies.

    The server runs in its own session (so a failure can kill its whole
    group); without this, a benchmark killed outright would orphan it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return lambda: prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


class ServerProcess:
    """One ``repro serve`` process, from spawn to a verified exit."""

    def __init__(
        self,
        root: Path,
        data: Path,
        log_path: Path,
        durable_dir: Optional[Path] = None,
        spans_path: Optional[Path] = None,
    ) -> None:
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("traced_serve.py")), "serve"]
        argv += ["--data", str(data), "--host", HOST, "--port", "0", "--warm-up", str(WARM_ANCHORS)]
        if durable_dir is not None:
            argv += ["--data-dir", str(durable_dir)]
        env = {key: value for key, value in os.environ.items() if not key.startswith("MAPRAT_")}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        if spans_path is not None:
            env["PERFBENCH_SPANS"] = str(spans_path)
        self.argv = argv
        self.env = env
        self.cwd = root
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.warm_report: dict = {}

    def start(self) -> float:
        """Spawn, wait until listening and warmed; returns the set-up seconds."""
        spawned = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                self.argv,
                cwd=self.cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
                preexec_fn=_die_with_parent_hook(),
            )
        line = self._first_line(spawned + READY_TIMEOUT_S)
        match = re.search(rb"https?://[^:\s]+:(\d+)", line)
        if match is None:
            raise BenchmarkError(f"server did not report its address: {line!r}")
        self.port = int(match.group(1))
        control = Connection(self.port)
        try:
            while True:
                serving = control.get_json("/api/summary")["serving"]
                warmer = serving.get("warmer")
                if warmer is not None and warmer["done"]:
                    ready = time.perf_counter()
                    if warmer["failed"]:
                        raise BenchmarkError("the server's warm-up failed")
                    self.warm_report = warmer["report"]
                    return ready - spawned
                if time.perf_counter() - spawned > READY_TIMEOUT_S:
                    raise BenchmarkError("the server's warm-up did not finish in time")
                time.sleep(POLL_INTERVAL_S)
        finally:
            control.close()

    def _first_line(self, deadline: float) -> bytes:
        assert self.process is not None and self.process.stdout is not None
        fd = self.process.stdout.fileno()
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchmarkError("the server did not start listening in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise BenchmarkError(f"the server exited during start-up:\n{self.log_tail()}")
                line += chunk
        return line

    def pss_mib(self) -> float:
        """Proportional set size of the server's process tree, in MiB."""
        assert self.process is not None
        total_kib = 0
        pending = [self.process.pid]
        while pending:
            pid = pending.pop()
            try:
                with open(f"/proc/{pid}/smaps_rollup") as rollup:
                    for line in rollup:
                        if line.startswith("Pss:"):
                            total_kib += int(line.split()[1])
                            break
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as children:
                        pending.extend(int(child) for child in children.read().split())
            except (FileNotFoundError, ProcessLookupError):
                continue
        return total_kib / 1024.0

    def stop(self) -> None:
        """SIGINT, then wait; raises when the server needed killing."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchmarkError("the server ignored SIGINT and was killed")
        finally:
            self._close_pipe()
        if code != 0:
            raise BenchmarkError(f"the server exited with code {code}:\n{self.log_tail()}")

    def kill(self) -> None:
        """Kill the whole process group and reap the server (idempotent)."""
        if self.process is None or self.process.returncode is not None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()

    def log_tail(self, limit: int = 2000) -> str:
        try:
            return self.log_path.read_bytes()[-limit:].decode("utf-8", "replace")
        except OSError:
            return ""


def closed_loop(
    conn: Connection, stream: Iterator[Request], deadline: float, tag: str
) -> List[Op]:
    """Send the next request as soon as the previous one is answered, until the deadline.

    ``stream`` is left positioned after the last request sent, so a caller
    can resume it.
    """
    ops: List[Op] = []
    while time.perf_counter() < deadline and not (ops and ops[-1].status is None):
        request = next(stream, None)
        if request is None:
            break
        ops.append(conn.call(request, f"{tag}{len(ops)}", len(ops)))
    return ops


def scheduled_writer(
    conn: Connection, batches: List[Request], start: float, deadline: float, tag: str
) -> List[Op]:
    """Post each batch at its due time and a compaction after every ``COMPACT_EVERY``.

    Only a compaction on this same connection can make a batch late; the
    lateness (send time minus due time) is recorded on every batch so a
    backlog shows.  Latency is timed from send.  Like every loop here it
    stops at the first dropped connection.
    """
    ops: List[Op] = []
    for index, batch in enumerate(batches):
        due = start + index * BATCH_PERIOD_S
        if due >= deadline or (ops and ops[-1].status is None):
            break
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        op = conn.call(batch, f"{tag}b{index}", index)
        op.lateness = op.sent_at - due
        ops.append(op)
        if (index + 1) % COMPACT_EVERY == 0:
            ops.append(conn.call(COMPACT, f"{tag}c{index}", index))
    return ops


def write_probe(conn: Connection, batches: List[Request], tag: str) -> List[Op]:
    """Closed-loop batches with a compaction after every ``COMPACT_EVERY``."""
    ops: List[Op] = []
    for index, batch in enumerate(batches):
        if ops and ops[-1].status is None:
            break
        ops.append(conn.call(batch, f"{tag}b{index}", index))
        if (index + 1) % COMPACT_EVERY == 0:
            ops.append(conn.call(COMPACT, f"{tag}c{index}", index))
    return ops


_METRIC_LINE = re.compile(r"^(maprat_cache_(?:hits|misses|coalesced|evictions)_total) (\d+)$", re.M)


def cache_counters(conn: Connection) -> dict:
    """The result-cache counters of one ``/metrics`` scrape."""
    text = conn.get_text("/metrics")
    return {
        name[len("maprat_cache_"):-len("_total")]: int(value)
        for name, value in _METRIC_LINE.findall(text)
    }
