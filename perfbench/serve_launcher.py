"""Run ``repro serve`` with the benchmark's tracing wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py DUMP.json serve --port 0

Everything after the dump path is handed to the package's own CLI, so
the traced server is configured exactly like the untraced one. Before
it starts, the engine layers are wrapped (see :mod:`perfbench.tracer`)
and so are the serve entry points: ``http.read_request`` /
``json_body`` / ``write_response``, ``HttpRequest.json``,
``ResponseCache.get`` / ``put``, ``CachedResponse.head``,
``AdmissionController.try_acquire``, ``SingleFlight.join``,
``Coalescer.submit`` and the ``run_suite`` name bound in
``repro.serve.coalescer``.

Each ``/predict`` request carries an ``X-Request-Id``; the wrappers
record its stage timestamps on ``time.perf_counter`` (the host-wide
monotonic clock the client also uses). A ``GET /healthz`` whose request
id is ``mark`` starts the measured window: everything recorded before
it (set-up, warm-up) is dropped. When the server has drained, the
timestamps and the per-layer totals are written to ``DUMP.json``.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARK = "mark"


class ServeTrace:
    """Per-request stage timestamps plus counts, from the mark on."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.rid = contextvars.ContextVar("perfbench_rid", default=None)
        self.lock = threading.Lock()
        self.marked = False
        self.registry_ms = 0.0
        self.events: dict[str, dict[str, float]] = {}
        #: (machine, config, kernel) -> request id, for engine spans.
        self.pending: dict[tuple, str] = {}
        self.counts = {"requests": 0, "respcache_gets": 0,
                       "respcache_hits": 0, "shed": 0, "merged": 0,
                       "engine_calls": 0, "engine_kernels": 0}

    def mark(self) -> None:
        with self.lock:
            self.registry_ms = self.tracer.layer_ms("registry")
            self.tracer.reset()
            self.events.clear()
            self.pending.clear()
            for key in self.counts:
                self.counts[key] = 0
            self.marked = True

    def record(self, rid: str | None, name: str, value: float) -> None:
        if rid is not None and self.marked:
            with self.lock:
                self.events.setdefault(rid, {})[name] = value

    def count(self, name: str, n: int = 1) -> None:
        if self.marked:
            with self.lock:
                self.counts[name] += n

    def timed(self, name: str, fn, on_result=None):
        """A sync wrapper recording ``name0``/``name1`` around ``fn``."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            result = fn(*args, **kwargs)
            ended = clock()
            rid = self.rid.get()
            self.record(rid, name + "0", started)
            self.record(rid, name + "1", ended)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> None:
        from repro.serve import coalescer, http
        from repro.serve.admission import AdmissionController
        from repro.serve.respcache import CachedResponse, ResponseCache
        from repro.serve.singleflight import SingleFlight

        clock = time.perf_counter
        trace = self
        read_request = http.read_request

        async def traced_read_request(*args, **kwargs):
            request = await read_request(*args, **kwargs)
            ended = clock()
            if request is not None:
                rid = request.headers.get("x-request-id")
                if rid == MARK:
                    trace.mark()
                else:
                    trace.record(rid, "read1", ended)
            return request

        http.read_request = traced_read_request

        # The connection task calls HttpRequest.json() once per POST;
        # the request id set here is seen by every later stage the same
        # task runs (response cache, admission, submit, encode, write).
        parse = http.HttpRequest.json

        def traced_json(request):
            rid = request.headers.get("x-request-id")
            trace.rid.set(rid)
            if rid is not None:
                trace.count("requests")
            started = clock()
            body = parse(request)
            trace.record(rid, "parse0", started)
            trace.record(rid, "parse1", clock())
            return body

        http.HttpRequest.json = traced_json

        def on_get(cached):
            trace.count("respcache_gets")
            if cached is not None:
                trace.count("respcache_hits")

        ResponseCache.get = self.timed("rcget", ResponseCache.get, on_get)
        ResponseCache.put = self.timed("rcput", ResponseCache.put)
        http.json_body = self.timed("encode", http.json_body)
        http.write_response = self.timed("write", http.write_response)
        CachedResponse.head = self.timed("write", CachedResponse.head)
        AdmissionController.try_acquire = self.timed(
            "admit", AdmissionController.try_acquire,
            lambda ok: None if ok else trace.count("shed"),
        )
        SingleFlight.join = self.timed(
            "join", SingleFlight.join,
            lambda joined: None if joined[1] else trace.count("merged"),
        )

        submit = coalescer.Coalescer.submit

        @functools.wraps(submit)
        async def traced_submit(self_, job):
            rid = trace.rid.get()
            trace.record(rid, "submit0", clock())
            if rid is not None:
                with trace.lock:
                    trace.pending[
                        (job.cpu.name, job.config, job.kernel.name)
                    ] = rid
            return await submit(self_, job)

        coalescer.Coalescer.submit = traced_submit

        run_suite = coalescer.run_suite

        @functools.wraps(run_suite)
        def traced_run_suite(cpu, config, kernels=None, **kwargs):
            started = clock()
            result = run_suite(cpu, config, kernels=kernels, **kwargs)
            ended = clock()
            trace.count("engine_calls")
            trace.count("engine_kernels", len(kernels))
            for kernel in kernels:
                with trace.lock:
                    rid = trace.pending.pop(
                        (cpu.name, config, kernel.name), None
                    )
                trace.record(rid, "engine0", started)
                trace.record(rid, "engine1", ended)
            return result

        coalescer.run_suite = traced_run_suite

    def dump(self) -> dict:
        return {
            "registry_ms": self.registry_ms,
            "counts": self.counts,
            "totals": self.tracer.totals(),
            "events": self.events,
        }


def main(argv: list[str]) -> int:
    dump_path, cli_args = Path(argv[0]), argv[1:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracer import Tracer, install_engine
    from repro.cli import main as cli_main

    tracer = Tracer()
    install_engine(tracer)
    trace = ServeTrace(tracer)
    trace.install()
    code = cli_main(cli_args)
    dump_path.write_text(json.dumps(trace.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
