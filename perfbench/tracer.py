"""Tracing from outside the program: wrap its public entry points.

:class:`Tracer` replaces a function or method with a timing wrapper
wherever the name is bound — the defining module and every ``repro``
module that imported it — and undoes it all on :meth:`Tracer.restore`.
Spans nest per thread, so a span's *self* time is its duration minus
the time its traced children took; summing self time by layer (the
span name's first component) partitions the traced time with nothing
counted twice.

Hooks run only on the outermost span of a layer (a compile cache call
nested in another one is not counted again) and may add named counts,
such as bytes read or cache hits, through the ``add`` callable they
receive. Time spent in hooks is excluded from the parent's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

Hook = Callable[..., Any]


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed)."""
        with self._lock:
            self.calls: Counter = Counter()
            self.self_ns: Counter = Counter()
            self.counts: Counter = Counter()

    def totals(self) -> dict[str, dict[str, float]]:
        """Everything recorded, as plain dicts (JSON-ready)."""
        with self._lock:
            return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                    "counts": dict(self.counts)}

    def merge(self, totals: dict[str, dict[str, float]]) -> None:
        """Add another tracer's :meth:`totals` to this one's."""
        with self._lock:
            self.calls.update(totals["calls"])
            self.self_ns.update(totals["self_ns"])
            self.counts.update(totals["counts"])

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        span: str,
        fn: Callable,
        before: Hook | None = None,
        after: Hook | None = None,
        suffix: Callable[[tuple], str] | None = None,
    ) -> Callable:
        """``fn`` timed as ``span``; ``before(args, kwargs)`` returns a
        state handed to ``after(args, kwargs, result, state, add)``, and
        ``suffix(args)`` splits the span per call (``span.<suffix>``)."""
        layer = span.split(".", 1)[0]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            stack = self._stack()
            parent = stack[-1] if stack else None
            outer = parent is None or parent[0] != layer
            state = before(args, kwargs) if before and outer else None
            frame = [layer, 0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                name = f"{span}.{suffix(args)}" if suffix else span
                with self._lock:
                    self.calls[name] += 1
                    self.self_ns[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += ended - entered
            if after is not None and outer:
                after(args, kwargs, result, state, self.add)
                if parent is not None:
                    parent[1] += clock() - ended
            return result

        return traced

    def patch_function(
        self, module: str, name: str, span: str, **hooks: Hook
    ) -> None:
        """Wrap ``module.name`` and every ``repro`` module's binding of
        the same object (``from module import name`` copies)."""
        original = getattr(sys.modules[module], name)
        wrapped = self.wrap(span, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def patch_method(
        self, cls: type, name: str, span: str, **hooks: Hook
    ) -> None:
        self._set(cls, name, self.wrap(span, cls.__dict__[name], **hooks))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_ms(self, layer: str) -> float:
        """Self time of every span in ``layer``, in milliseconds."""
        with self._lock:
            ns = sum(
                v for k, v in self.self_ns.items()
                if k.split(".", 1)[0] == layer
            )
        return ns / 1e6


# -- the program's entry points --------------------------------------------

STORE_NAMESPACES = ("compile", "predict", "soa", "sweep", "responses")


def _compile_stats(args, kwargs):
    stats = args[0].stats
    return stats.hits + stats.disk_hits, stats.calls


def _compile_after(args, kwargs, result, state, add):
    stats = args[0].stats
    add("compiler.calls")
    add("compiler.lookups", stats.calls - state[1])
    add("compiler.hits", stats.hits + stats.disk_hits - state[0])


def _engine_after(args, kwargs, result, state, add):
    rows = result if result and isinstance(result[0], list) else [result]
    total = sum(len(row) for row in rows)
    add("perfmodel.predictions", total)
    add("perfmodel.abstained",
        sum(1 for row in rows for r in row if r is None))


def _peek_after(args, kwargs, result, state, add):
    add("memo.keys", len(result))
    add("memo.hits", sum(1 for r in result if r is not None))


def _artifact_bytes(store, namespace: str, key_parts) -> int:
    """Size of one artifact file (``<root>/<namespace>/<digest>.json``,
    the layout :class:`repro.store.ArtifactStore` documents)."""
    from repro.store.artifact import stable_digest

    path = Path(store.root) / namespace / (
        stable_digest(list(key_parts)) + ".json"
    )
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _namespace(args) -> str:
    return args[1]


def _store_get_after(args, kwargs, result, state, add):
    store, namespace, key = args[0], args[1], args[2]
    add(f"store.get_calls.{namespace}")
    if result is not None:
        add(f"store.get_hits.{namespace}")
        add(f"store.get_bytes.{namespace}",
            _artifact_bytes(store, namespace, key))


def _store_put_after(args, kwargs, result, state, add):
    store, namespace, key = args[0], args[1], args[2]
    add(f"store.put_calls.{namespace}")
    if result:
        add(f"store.put_bytes.{namespace}",
            _artifact_bytes(store, namespace, key))


def install_engine(tracer: Tracer) -> None:
    """Wrap every in-process layer: registry, compiler, perfmodel,
    suite (runner, sweep, memo) and store."""
    import repro.perfmodel.batch  # noqa: F401 - load before patching
    import repro.perfmodel.execution  # noqa: F401
    import repro.suite.runner  # noqa: F401
    import repro.suite.sweep  # noqa: F401
    from repro.compiler.cache import CompileCache
    from repro.registry.core import Registry
    from repro.store.artifact import ArtifactStore
    from repro.suite.memo import PredictionMemo

    tracer.patch_method(Registry, "machines", "registry.machines")
    tracer.patch_method(Registry, "machine", "registry.machine")
    for name in ("analyze", "analyze_many", "analyze_suite"):
        tracer.patch_method(
            CompileCache, name, f"compiler.{name}",
            before=_compile_stats, after=_compile_after,
        )
    for name in ("predict_grid", "predict_batch"):
        tracer.patch_function(
            "repro.perfmodel.batch", name, f"perfmodel.{name}",
            after=_engine_after,
        )
    tracer.patch_function(
        "repro.perfmodel.batch", "lower_kernels", "perfmodel.lower_kernels"
    )
    tracer.patch_function(
        "repro.perfmodel.execution", "simulate_kernel",
        "perfmodel.simulate_kernel",
    )
    tracer.patch_function("repro.suite.runner", "run_suite",
                          "suite.run_suite")
    tracer.patch_function("repro.suite.runner", "grid_prefetch",
                          "suite.grid_prefetch")
    tracer.patch_function("repro.suite.sweep", "sweep", "suite.sweep")
    tracer.patch_method(PredictionMemo, "peek_many", "memo.peek_many",
                        after=_peek_after)
    tracer.patch_method(PredictionMemo, "put_many", "memo.put_many")
    tracer.patch_method(ArtifactStore, "get", "store.get",
                        after=_store_get_after, suffix=_namespace)
    tracer.patch_method(ArtifactStore, "put", "store.put",
                        after=_store_put_after, suffix=_namespace)


def engine_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op layer metrics of the engine layers (every name appears,
    zero when the layer did nothing)."""
    c, calls = tracer.counts, tracer.calls
    ops = max(ops, 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    engine_calls = (
        calls["perfmodel.predict_grid"] + calls["perfmodel.predict_batch"]
    )
    out = {
        "compiler.calls": c["compiler.calls"] / ops,
        "compiler.busy_ms": tracer.layer_ms("compiler") / ops,
        "compiler.hit_ratio": ratio(c["compiler.hits"],
                                    c["compiler.lookups"]),
        "perfmodel.grid_calls": calls["perfmodel.predict_grid"] / ops,
        "perfmodel.batch_calls": calls["perfmodel.predict_batch"] / ops,
        "perfmodel.kernels_per_call": ratio(c["perfmodel.predictions"],
                                            engine_calls),
        "perfmodel.scalar_calls": calls["perfmodel.simulate_kernel"] / ops,
        "perfmodel.abstain_ratio": ratio(c["perfmodel.abstained"],
                                         c["perfmodel.predictions"]),
        "perfmodel.busy_ms": tracer.layer_ms("perfmodel") / ops,
        "suite.self_ms": tracer.layer_ms("suite") / ops,
        "suite.memo_busy_ms": tracer.layer_ms("memo") / ops,
        "suite.memo_hit_ratio": ratio(c["memo.hits"], c["memo.keys"]),
    }
    for ns in (*STORE_NAMESPACES, ""):
        # ns == "" is the all-namespace total, reported without suffix.
        keys = STORE_NAMESPACES if not ns else (ns,)
        row = {
            "get_calls": sum(c[f"store.get_calls.{k}"] for k in keys),
            "get_ms": sum(tracer.self_ns[f"store.get.{k}"] for k in keys)
            / 1e6,
            "get_bytes": sum(c[f"store.get_bytes.{k}"] for k in keys),
            "put_calls": sum(c[f"store.put_calls.{k}"] for k in keys),
            "put_ms": sum(tracer.self_ns[f"store.put.{k}"] for k in keys)
            / 1e6,
            "put_bytes": sum(c[f"store.put_bytes.{k}"] for k in keys),
        }
        hits = sum(c[f"store.get_hits.{k}"] for k in keys)
        tail = f".{ns}" if ns else ""
        for key, value in row.items():
            out[f"store.{key}{tail}"] = value / ops
        out[f"store.hit_ratio{tail}"] = ratio(hits, row["get_calls"])
    return out
