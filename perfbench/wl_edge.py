"""The ``edge`` workload: client events through the WebSocket gateway.

Why: reactions were about 6% of event→diff time, so this workload loads
``gateway``, ``wsproto`` and asyncio, and bypasses ``lockstep`` and the
compiler.

The gateway (default ``coalesce`` ingress) runs in a child process
(``edge_server.py``) on loopback TCP.  This process drives it through
:data:`CONNECTIONS` WebSocket sessions with a lean client: every event
frame is encoded before the run and the client busy-polls its sockets,
so neither the generator nor the client's own wake-ups set the numbers.
The schedule is open loop (Poisson arrivals, generated from the seed),
alternating between the nominal and the overload rate.  An event's
latency runs from its due time to the arrival of the first diff
committed after the gateway applied it (the diff's ``ack`` covers the
event id); its admission latency runs to its ``ack`` frame.

Correctness: after quiescing, every client view must equal its session
view (no lost diffs), and replaying the gateway's recorded instants
(``record_instants``) into a worklist fleet must reproduce every
member's state digest.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from common import BenchError, check_generator, median, out_path, quantile

from repro.runtime.wsproto import (
    OP_PING,
    OP_PONG,
    OP_TEXT,
    FrameAssembler,
    encode_frame,
    handshake_request,
)

HERE = os.path.dirname(os.path.abspath(__file__))

#: Participant fleet behind the gateway
MEMBERS = 256
#: WebSocket sessions the client opens (the runner's core count)
CONNECTIONS = 2
#: offered rates (events/s), calibrated once on a 2-core runner against
#: the gateway's one-reaction-per-event capacity (about 6,000/s, measured
#: with a ``reject`` ingress that does not coalesce): nominal about half
#: of it; overload above it, which the ``coalesce`` ingress absorbs by
#: merging events into fewer reactions
NOMINAL_EPS = 3000.0
OVERLOAD_EPS = 8000.0
#: an event whose diff arrives later than this missed (goodput)
LIMIT_MS = 50.0
#: share of ``--seconds`` spent at each rate, in slices that alternate
#: so both rates sample the whole run
NOMINAL_SHARE = 0.6
OVERLOAD_SHARE = 0.2
SEGMENTS = 20
#: quiet time after each overload slice
DRAIN_GAP_S = 0.05
#: set-ups per run (setup_s is their median)
SETUP_REPEATS = 5
#: how long after the last due time events may still complete
COMPLETE_TIMEOUT_S = 15.0


class _Client:
    """One lean WebSocket session over a non-blocking socket: folds
    diffs into a view and resolves the latency of every event a diff
    acknowledges."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.assembler = FrameAssembler()
        self.out = bytearray()
        self.sid: Optional[str] = None
        self.view: Dict[str, Any] = {}
        self.seq = 0
        self.synced: Optional[int] = None
        self.sent = 0
        #: (event id, due time, phase) in send order
        self.pending: Deque[Tuple[int, float, int]] = deque()
        #: event id -> (due time, phase)
        self.due: Dict[int, Tuple[float, int]] = {}
        self.refused: set = set()
        #: (due → diff ms, phase) and (due → ack ms, phase)
        self.done: List[Tuple[float, int]] = []
        self.acks: List[Tuple[float, int]] = []
        request, _ = handshake_request("127.0.0.1", "/ws")
        self.sock.sendall(request)
        head = bytearray()
        while b"\r\n\r\n" not in head:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise BenchError("edge: gateway closed during the upgrade")
            head += chunk
        status, _, leftover = bytes(head).partition(b"\r\n\r\n")
        if b" 101 " not in status.split(b"\r\n", 1)[0]:
            raise BenchError(f"edge: websocket upgrade refused: {status[:80]!r}")
        self.sock.setblocking(False)
        self.send({"t": "hello"})
        self.on_bytes(leftover)
        deadline = time.perf_counter() + 10.0
        while self.sid is None:
            if time.perf_counter() > deadline:
                raise BenchError("edge: no welcome from the gateway")
            _io([self], 0.05)

    @property
    def outstanding(self) -> int:
        """Events sent and neither answered by a diff nor refused."""
        return self.sent - len(self.done) - len(self.refused)

    def send(self, obj: Dict[str, Any]) -> None:
        self.send_frame(encode_frame(OP_TEXT, json.dumps(obj).encode(), mask=True))

    def send_frame(self, frame: bytes) -> None:
        self.out += frame
        self.flush()

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def read(self) -> None:
        try:
            chunk = self.sock.recv(262144)
        except BlockingIOError:
            return
        if not chunk:
            raise BenchError(f"edge: gateway closed session {self.sid}")
        self.on_bytes(chunk)

    def on_bytes(self, chunk: bytes) -> None:
        for frame in self.assembler.feed(chunk):
            if frame.opcode == OP_TEXT:
                self.on_message(json.loads(frame.payload))
            elif frame.opcode == OP_PING:
                self.send_frame(encode_frame(OP_PONG, frame.payload, mask=True))

    def on_message(self, msg: Dict[str, Any]) -> None:
        kind = msg.get("t")
        now = time.perf_counter()
        if kind == "diff":
            self.view.update(msg["emitted"])
            self.seq = msg["seq"]
            ack = msg["ack"]
            pending = self.pending
            while pending and pending[0][0] <= ack:
                event_id, due, phase = pending.popleft()
                if event_id not in self.refused:
                    self.done.append(((now - due) * 1000.0, phase))
        elif kind == "ack":
            due, phase = self.due[msg["id"]]
            self.acks.append(((now - due) * 1000.0, phase))
        elif kind == "busy" and "id" in msg:
            self.refused.add(msg["id"])
        elif kind == "welcome":
            self.sid = msg["sid"]
            self.seq = msg["seq"]
            self.view = dict(msg["view"])
        elif kind == "synced":
            self.synced = msg["seq"]
        else:
            raise BenchError(f"edge: unexpected frame from the gateway: {msg}")

    def close(self) -> None:
        self.sock.close()


def make_schedule(seed: int, seconds: float) -> List[Tuple[float, int, int, bytes]]:
    """``(due offset s, connection, phase, frame)`` for every event:
    Poisson arrivals, alternating :data:`SEGMENTS` times between the
    nominal rate (phase 0) and the overload rate (phase 1), with a quiet
    gap after each overload slice so its backlog drains before the next
    nominal slice.  Event ids count up per connection."""
    rng = random.Random(seed)
    schedule = []
    next_id = [0] * CONNECTIONS
    phases = ((NOMINAL_EPS, NOMINAL_SHARE * seconds / SEGMENTS, 0.0),
              (OVERLOAD_EPS, OVERLOAD_SHARE * seconds / SEGMENTS, DRAIN_GAP_S))
    t = end = 0.0
    for phase, (rate, length, gap) in list(enumerate(phases)) * SEGMENTS:
        end += length
        while True:
            t += rng.expovariate(rate)
            if t >= end:
                t = end = end + gap
                break
            conn = rng.randrange(CONNECTIONS)
            next_id[conn] += 1
            roll = rng.random()
            if roll < 0.6:
                inputs: Dict[str, Any] = {"select": f"p{rng.randrange(12)}"}
            elif roll < 0.8:
                inputs = {"grant": rng.randrange(1, 100)}
            else:
                inputs = {"stop": True}
            frame = encode_frame(
                OP_TEXT,
                json.dumps({"t": "ev", "id": next_id[conn], "inputs": inputs}).encode(),
                mask=True,
            )
            schedule.append((t, conn, phase, frame))
    return schedule


class _Server:
    """The gateway child process."""

    def __init__(self, spans: Optional[str]):
        cmd = [sys.executable, os.path.join(HERE, "edge_server.py"), "--members", str(MEMBERS)]
        if spans:
            cmd += ["--spans", spans]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise BenchError("edge: gateway process exited before listening")
        self.port = json.loads(line)["port"]

    def command(self, word: str) -> None:
        self.proc.stdin.write(word.encode() + b"\n")
        self.proc.stdin.flush()

    def report(self) -> Dict[str, Any]:
        self.command("stop")
        line = self.proc.stdout.readline()
        self.proc.wait(timeout=60)
        if not line:
            raise BenchError(f"edge: gateway process failed (exit {self.proc.returncode})")
        return json.loads(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdin.close()
        self.proc.stdout.close()


def _io(clients: List[_Client], timeout: float) -> None:
    """Wait up to ``timeout`` for any socket to become readable (or
    writable with queued output) and serve it."""
    socks = {c.sock: c for c in clients}
    ready, writable, _ = select.select(
        list(socks), [c.sock for c in clients if c.out], [], max(0.0, timeout)
    )
    for sock in writable:
        socks[sock].flush()
    for sock in ready:
        socks[sock].read()


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    schedule = make_schedule(seed, seconds)
    setups: List[float] = []
    server: Optional[_Server] = None
    clients: List[_Client] = []
    try:
        for attempt in range(SETUP_REPEATS):
            last = attempt == SETUP_REPEATS - 1
            start = time.perf_counter()
            server = _Server(out_path("spans-edge.jsonl") if traced and last else None)
            clients = [_Client(server.port) for _ in range(CONNECTIONS)]
            setups.append(time.perf_counter() - start)
            if not last:
                for client in clients:
                    client.close()
                server.stop()
        gc.collect()
        gc.freeze()
        server.command("go")

        late_ms: List[float] = []
        t0 = time.perf_counter() + 0.05
        n = len(schedule)
        i = 0
        while i < n:
            now = time.perf_counter()
            while i < n and t0 + schedule[i][0] <= now:
                offset, conn, phase, frame = schedule[i]
                i += 1
                due = t0 + offset
                late_ms.append((now - due) * 1000.0)
                client = clients[conn]
                client.sent += 1
                client.pending.append((client.sent, due, phase))
                client.due[client.sent] = (due, phase)
                client.send_frame(frame)
            # busy-poll: a client sleeping until the next due time pays a
            # variable wake-up delay that would enter every latency
            _io(clients, 0.0)
        deadline = time.perf_counter() + COMPLETE_TIMEOUT_S
        while any(c.outstanding or c.out for c in clients) and time.perf_counter() < deadline:
            _io(clients, 0.0)
        for client in clients:
            client.send({"t": "sync", "id": 0})
        while (any(c.synced is None or c.seq < c.synced for c in clients)
               and time.perf_counter() < deadline + 5.0):
            _io(clients, 0.01)
        report = server.report()
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()
    return _evaluate(schedule, clients, report, setups, late_ms, seconds)


def _evaluate(schedule, clients, report, setups, late_ms, seconds) -> Dict[str, Any]:
    # correctness: no lost diffs, oracle digest parity
    if not report["drained"]:
        raise BenchError("edge: gateway did not quiesce")
    if report["oracle_mismatches"]:
        raise BenchError(f"edge: oracle digest mismatch on members {report['oracle_mismatches'][:8]}")
    for client in clients:
        session = report["sessions"].get(client.sid)
        if session is None:
            raise BenchError(f"edge: session {client.sid} missing on the gateway")
        if client.view != session["view"] or client.seq != session["seq"]:
            raise BenchError(f"edge: client view of {client.sid} diverged from its session (lost diffs)")
    late_p99 = check_generator(late_ms, "edge")

    nominal = [lat for c in clients for lat, ph in c.done if ph == 0]
    overload = [lat for c in clients for lat, ph in c.done if ph == 1]
    nominal_ack = [lat for c in clients for lat, ph in c.acks if ph == 0]
    attempted = len(schedule)
    completed = sum(len(c.done) for c in clients)
    counters = report["counters"]
    return {
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mib": report["peak_rss_mib"],
            "main_p50_ms": quantile(nominal, 0.5),
            "second_p50_ms": quantile(nominal_ack, 0.5),
            "third_p50_ms": quantile(overload, 0.5),
            "throughput_per_s": sum(1 for lat in overload if lat <= LIMIT_MS)
            / (OVERLOAD_SHARE * seconds),
        },
        "tails": {"main": quantile(nominal, 0.99), "second": quantile(nominal_ack, 0.99)},
        "attempted": attempted,
        "failed": attempted - completed,
        # timing decides how many events one reaction coalesces, so only
        # the counts no schedule jitter can move are compared
        "counts": {
            "events": counters["events"],
            "events_applied": counters["events_applied"],
            "events_refused": counters["events_rate_limited"] + counters["events_rejected"],
            "ingress_offered": report["ingress"]["ingress.offered"],
            "lockstep": report["lockstep"],
        },
        "layers": {**report.get("layers", {}), "edge.gen_late_p99_ms": late_p99},
    }

