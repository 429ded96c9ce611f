"""The serve workload: ``serve_miss``.

The program runs as its own process — ``python -m repro serve --port
0`` untraced, ``perfbench/serve_launcher.py`` traced — and the load
comes from this process: one thread driving two keep-alive
connections, each a closed loop, sending raw HTTP/1.1 ``/predict``
requests.

The window is cut into rounds. Each round starts a fresh server, warms
it (untimed) and sends :data:`ROUND_REQUESTS` timed requests. The
server records telemetry spans into a ring of 100k entries and walks
the whole ring on every engine call, so its miss latency grows with
every request it has served until the ring is full. A fresh server per
round times every request at the same point of that growth, however
fast the program is and however long the window.

Latency is client-observed, from the first byte sent to the last byte
received. Every response is checked after the timed window against an
uncached ``run_suite`` of the same request.
"""

from __future__ import annotations

import itertools
import json
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Iterator

from perfbench import inputs
from perfbench.serve_launcher import MARK
from perfbench.tracer import Tracer, engine_metrics
from perfbench.common import (
    Outcome,
    Phase,
    latency_metrics,
    sample_counts,
    overhead,
    percentile,
    pid_peak_rss_mb,
    python_env,
)

CLIENTS = 2
HOST = "127.0.0.1"
#: Timed requests sent to each fresh server.
ROUND_REQUESTS = 400
#: Requests whose client latency ranks in this band are the ones the
#: stage breakdown averages over, so the stage sum lands on the p50.
MEDIAN_BAND = (45.0, 55.0)
#: Stages of one request, in the order they happen.
STAGES = ("http_read", "respcache_get", "coalesce_wait", "engine",
          "encode", "respcache_put", "write")


class Connection:
    """One keep-alive HTTP/1.1 client connection (raw socket)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    @staticmethod
    def encode(method: str, path: str, body: bytes = b"",
               rid: str | None = None) -> bytes:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if rid is not None:
            head += f"X-Request-Id: {rid}\r\n"
        return head.encode("latin-1") + b"\r\n" + body

    def request(self, method: str, path: str, body: bytes = b"",
                rid: str | None = None) -> tuple[int, bytes]:
        """Send one request and wait for its response."""
        self.sock.sendall(self.encode(method, path, body, rid))
        return self.response()

    def response(self) -> tuple[int, bytes]:
        """Block until one whole response has arrived."""
        while (reply := self.parse()) is None:
            self.fill()
        return reply

    def parse(self) -> tuple[int, bytes] | None:
        """Take one whole response off the buffer, if there is one."""
        buf = self.buf
        end = buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(buf[:end]).decode("latin-1").lower()
        length = 0
        for line in head.split("\r\n")[1:]:
            if line.startswith("content-length:"):
                length = int(line[15:])
        total = end + 4 + length
        if len(buf) < total:
            return None
        body = bytes(buf[end + 4:total])
        del buf[:total]
        return int(head[9:12]), body

    def fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk


class Server:
    """One server process on an ephemeral port."""

    def __init__(self, root: Path, scratch: Path, dump: Path | None):
        self.log = scratch / f"server-{time.monotonic_ns()}.log"
        self.dump = dump
        if dump is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            cmd = [sys.executable,
                   str(root / "perfbench" / "serve_launcher.py"),
                   str(dump), "serve", "--port", "0"]
        started = time.perf_counter()
        with self.log.open("wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=python_env(root),
                stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            self.port = self._wait_port()
            self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited: {self.log.read_text()[-2000:]}"
                )
            for line in self.log.read_text().splitlines():
                if line.startswith("serving on http://"):
                    return int(line.rsplit(":", 1)[1])
            time.sleep(0.002)
        raise RuntimeError("server did not print its address")

    def _wait_ready(self) -> None:
        conn = Connection(self.port)
        try:
            while conn.request("GET", "/readyz")[0] != 200:
                time.sleep(0.002)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> dict | None:
        """SIGTERM (graceful drain), then the launcher's dump if any."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain within 30 s")
        if code != 0:
            raise RuntimeError(
                f"server exited {code}: {self.log.read_text()[-2000:]}"
            )
        if self.dump is None:
            return None
        return json.loads(self.dump.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _encode(req: inputs.Request) -> bytes:
    return json.dumps(req.body()).encode()


def _warm_up(port: int, sweeps: list[dict],
             requests: list[inputs.Request]) -> None:
    conn = Connection(port)
    try:
        for body in sweeps:
            status, _ = conn.request("POST", "/sweep",
                                     json.dumps(body).encode())
            if status != 200:
                raise RuntimeError(f"warm-up /sweep answered {status}")
        for req in requests:
            status, _ = conn.request("POST", "/predict", _encode(req))
            if status != 200:
                raise RuntimeError(f"warm-up /predict answered {status}")
    finally:
        conn.close()


def _timed(port: int, requests: list[inputs.Request],
           rids: Iterator[int]) -> tuple[float, list]:
    """Send ``requests`` over :data:`CLIENTS` keep-alive connections.

    Each connection is a closed loop — its next request goes out only
    when its last reply is in. One thread multiplexes them, so the
    clients never queue behind each other for the interpreter lock.
    Returns the wall time and one ``(rid, request, sent, answered,
    status, body)`` record per request.
    """
    clock = time.perf_counter
    records: list = []
    todo = iter(requests)
    inflight: dict[Connection, tuple] = {}
    selector = selectors.DefaultSelector()

    def send(conn: Connection) -> None:
        req = next(todo, None)
        if req is None:
            return
        rid = str(next(rids))
        data = Connection.encode("POST", "/predict", _encode(req), rid)
        inflight[conn] = (rid, req, clock())
        conn.sock.sendall(data)

    def start() -> None:
        conn = Connection(port)
        selector.register(conn.sock, selectors.EVENT_READ, conn)
        send(conn)

    t0 = clock()
    try:
        for _ in range(CLIENTS):
            start()
        while inflight:
            ready = selector.select(timeout=30)
            if not ready:
                raise RuntimeError("the server stopped answering")
            for key, _ in ready:
                conn = key.data
                try:
                    conn.fill()
                    reply = conn.parse()
                except OSError as exc:
                    reply = (0, repr(exc).encode())
                    selector.unregister(conn.sock)
                    conn.close()
                    rid, req, started = inflight.pop(conn)
                    records.append((rid, req, started, clock(), *reply))
                    start()
                    continue
                if reply is None:
                    continue
                rid, req, started = inflight.pop(conn)
                records.append((rid, req, started, clock(), *reply))
                send(conn)
    finally:
        for key in list(selector.get_map().values()):
            key.data.close()
        selector.close()
    return clock() - t0, records


class _Reference:
    """Uncached ``run_suite`` answers, as the server would configure
    the request (one deterministic run, default compiler flavor)."""

    def __init__(self) -> None:
        from repro.kernels.registry import all_kernels
        from repro.registry import Registry

        self.machines = Registry().machines()
        self._kernels = {k.name: k for k in all_kernels()}
        self.kernels = list(self._kernels)
        self._cache: dict[inputs.Request, tuple] = {}

    def answer(self, req: inputs.Request) -> tuple:
        found = self._cache.get(req)
        if found is None:
            from repro.suite.config import RunConfig
            from repro.suite.runner import run_suite

            config = RunConfig(
                threads=req.threads, placement=req.placement,
                precision=req.precision, runs=1, noise_sigma=0.0,
            )
            result = run_suite(self.machines[req.machine], config,
                               kernels=[self._kernels[req.kernel]])
            run = result.runs[req.kernel]
            found = (run.seconds, run.prediction.bound,
                     run.prediction.serving_level)
            self._cache[req] = found
        return found


def _check(records: list, reference: _Reference) -> tuple[int, list]:
    failed = 0
    notes: list[str] = []
    verified: dict[tuple, bool] = {}
    for _rid, req, _t0, _t1, status, reply in records:
        ok = status == 200
        if ok:
            key = (req, reply)
            ok = verified.get(key)
            if ok is None:
                got = json.loads(reply)
                ok = verified[key] = (
                    got["seconds"], got["bound"], got["serving_level"]
                ) == reference.answer(req)
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{req}: status {status}: {reply!r:.200}")
    return failed, notes


def _stage_times(event: dict, t0: float, t1: float) -> dict[str, float]:
    """One request's stages (seconds) plus the unattributed rest."""

    def span(name: str) -> float:
        if name + "0" in event and name + "1" in event:
            return event[name + "1"] - event[name + "0"]
        return 0.0

    stages = dict.fromkeys(STAGES, 0.0)
    if "read1" in event:
        stages["http_read"] = event["read1"] - t0 + span("parse")
    stages["respcache_get"] = span("rcget")
    if "engine0" in event and "submit0" in event:
        stages["coalesce_wait"] = event["engine0"] - event["submit0"]
    stages["engine"] = span("engine")
    stages["encode"] = span("encode")
    stages["respcache_put"] = span("rcput")
    if "write0" in event:
        stages["write"] = t1 - event["write0"]
    stages["unattributed"] = (t1 - t0) - sum(stages.values())
    return stages


def _serve_layers(dumps: list[dict], records: list) -> dict[str, float]:
    """Per-layer metrics of a traced phase: the engine layers from the
    servers' tracers, and the stage breakdown of the median band."""
    tracer = Tracer()
    counts: Counter = Counter()
    events: dict = {}
    for dump in dumps:
        tracer.merge(dump["totals"])
        counts.update(dump["counts"])
        events.update(dump["events"])
    ok = [r for r in records if r[4] == 200]
    latencies = sorted(r[3] - r[2] for r in ok)
    low = percentile(latencies, MEDIAN_BAND[0])
    high = percentile(latencies, MEDIAN_BAND[1])
    band = [r for r in ok if low <= r[3] - r[2] <= high]
    totals = dict.fromkeys((*STAGES, "unattributed"), 0.0)
    for rid, _req, t0, t1, _status, _reply in band:
        for name, value in _stage_times(events.get(rid, {}), t0,
                                        t1).items():
            totals[name] += value
    ops = max(counts["requests"], 1)
    metrics = engine_metrics(tracer, ops)
    metrics.update({
        f"serve.{name}_ms": value / len(band) * 1e3
        for name, value in totals.items()
    })
    metrics.update({
        "serve.respcache_hit_ratio": (
            counts["respcache_hits"] / counts["respcache_gets"]
            if counts["respcache_gets"] else 0.0
        ),
        "serve.admission_shed": counts["shed"] / ops,
        "serve.singleflight_merged": counts["merged"] / ops,
        "serve.batch_width": (
            counts["engine_kernels"] / counts["engine_calls"]
            if counts["engine_calls"] else 0.0
        ),
        "serve.client_p50_ms": statistics.median(latencies) * 1e3,
        "serve.stage_sum_ms": sum(totals.values()) / len(band) * 1e3,
        "registry.load_ms": statistics.median(
            dump["registry_ms"] for dump in dumps
        ),
    })
    return metrics


def _round(root: Path, scratch: Path, dump: Path | None, warm: tuple,
           requests: list[inputs.Request], rids: Iterator[int]) -> tuple:
    """One fresh server: start it, warm it, time ``requests``, stop it.
    Returns its set-up time, peak RSS, timed wall time, records and the
    launcher's dump (``None`` untraced)."""
    server = Server(root, scratch, dump)
    try:
        _warm_up(server.port, *warm)
        if dump is not None:
            conn = Connection(server.port)
            try:
                conn.request("GET", "/healthz", rid=MARK)
            finally:
                conn.close()
        wall, records = _timed(server.port, requests, rids)
        rss_mb = server.peak_rss_mb()
        dumped = server.stop()
    finally:
        server.kill()
    return server.setup_s, rss_mb, wall, records, dumped


def serve(root: Path, seed: int, seconds: float, trace: bool,
          scratch: Path) -> Outcome:
    reference = _Reference()
    cores = {n: cpu.num_cores for n, cpu in reference.machines.items()}
    kernels = reference.kernels
    warm = inputs.serve_warmup(seed, cores, kernels)
    requests = inputs.miss_requests(seed, cores, kernels)
    rids = itertools.count(1)

    setup: list[float] = []
    rss: list[float] = []
    phases = []
    for traced in (False, True) if trace else (False,):
        phase, records, dumps = Phase(), [], []
        deadline = time.perf_counter() + seconds / (2 if trace else 1)
        while True:
            dump = scratch / f"trace-{len(dumps)}.json" if traced else None
            setup_s, rss_mb, wall, got, dumped = _round(
                root, scratch, dump, warm,
                list(itertools.islice(requests, ROUND_REQUESTS)), rids,
            )
            setup.append(setup_s)
            rss.append(rss_mb)
            if dumped is not None:
                dumps.append(dumped)
            records.extend(got)
            ok = [(r[3] - r[2], 1) for r in got if r[4] == 200]
            phase.add(ok, wall, len(got) - len(ok))
            if time.perf_counter() >= deadline:
                break
        phases.append((phase, records, dumps))

    attempted = sum(p.attempted for p, _, _ in phases)
    failed = 0
    notes = []
    for _phase, records, _dumps in phases:
        bad, why = _check(records, reference)
        failed += bad
        notes.extend(why)
    end_to_end = [latency_metrics(p) for p, _, _ in phases]
    notes.append(
        f"{attempted} requests checked against uncached run_suite, "
        f"{failed} failed (error rate {failed / attempted:.6f}); "
        f"{sample_counts(phases[0][0])}; {len(setup)} server starts"
    )
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            **end_to_end[0],
            "success_rate": 1.0 - failed / attempted,
            "peak_rss_mb": statistics.median(rss),
        }
    else:
        _phase, records, dumps = phases[1]
        metrics = _serve_layers(dumps, records)
        metrics.update(overhead(end_to_end[0]["op_p50_ms"],
                                end_to_end[1]["op_p50_ms"]))
        notes.append(
            f"stage sum {metrics['serve.stage_sum_ms']:.4f} ms vs traced "
            f"client p50 {metrics['serve.client_p50_ms']:.4f} ms"
        )
    return Outcome(attempted, failed, metrics, notes)
