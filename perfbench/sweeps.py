"""The two engine workloads: ``sweep_cold`` and ``sweep_store``.

Both are closed loops with one client — the benchmark process itself
calls ``repro.suite.sweep.sweep`` and waits for the result before the
next op. Ops are checked after the timed window: every op's points are
digested (outside its timed interval) and compared with the digest of
the same grid under ``reference_mode()`` + ``SuiteCaches.disabled()``.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Iterator

from perfbench import inputs, tracer as tracing
from perfbench.common import (
    LOAD_REGISTRY,
    SETUP_REPEATS,
    Outcome,
    Phase,
    ReferenceSweeps,
    latency_metrics,
    sample_counts,
    launch_seconds,
    overhead,
    points_digest,
    registry_load_ms,
    self_peak_rss_mb,
)

#: Sessions in one sweep_store round.
STORE_ROUND_OPS = 4
#: Packages whose process-wide ``functools.lru_cache``s are cleared
#: before every op, outside its timed interval, so that an op pays what
#: the same call pays in a fresh process. The registry and kernel-suite
#: caches are kept: loading those is set-up.
COLD_PACKAGES = ("repro.compiler", "repro.openmp", "repro.perfmodel",
                 "repro.suite")


class _Engine:
    """The program's objects the sweep workloads call."""

    def __init__(self) -> None:
        from repro.kernels.registry import all_kernels
        from repro.registry import Registry

        self.machines = Registry().machines()
        self.kernels = {k.name: k for k in all_kernels()}
        self.cores = {n: cpu.num_cores for n, cpu in self.machines.items()}

    def sweep(self, grid: inputs.Grid, caches):
        from repro.suite.config import Placement, Precision
        from repro.suite.sweep import sweep

        return sweep(
            self.machines[grid.machine],
            [self.kernels[name] for name in grid.kernels],
            threads=list(grid.threads),
            placements=[Placement.from_label(p) for p in grid.placements],
            precisions=[Precision.from_label(p) for p in grid.precisions],
            caches=caches,
        )


#: One op: returns its prediction count and each ``(grid, points)``
#: it swept; points are digested after the op's timed interval.
Op = Callable[[], tuple[int, list[tuple[inputs.Grid, list]]]]


def _process_lrus() -> list:
    """Every ``lru_cache`` of the :data:`COLD_PACKAGES` modules loaded."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not any(
            name == pkg or name.startswith(pkg + ".")
            for pkg in COLD_PACKAGES
        ):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(
                value, "cache_info"
            ):
                found[id(value)] = value
    return list(found.values())


def _run_round(ops: list[Op], lrus: list, record: list,
               ) -> tuple[list[tuple[float, int]], int]:
    """Run one round's ops; each starts with every LRU in ``lrus``
    cleared."""
    clock = time.perf_counter
    samples: list[tuple[float, int]] = []
    failed = 0
    for op in ops:
        for lru in lrus:
            lru.cache_clear()
        started = clock()
        try:
            predictions, outputs = op()
        except Exception as exc:  # a failed op is counted, not fatal
            failed += 1
            record.append(("error", repr(exc)))
            continue
        samples.append((clock() - started, predictions))
        record.append(
            ("ok", [(grid, points_digest(pts)) for grid, pts in outputs])
        )
    return samples, failed


def _run_phase(rounds: Iterator[list[Op]], seconds: float, lrus: list,
               record: list) -> Phase:
    """Run whole rounds until ``seconds`` of wall time have passed."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        samples, failed = _run_round(next(rounds), lrus, record)
        phase.add(samples, sum(t for t, _ in samples), failed)
        if time.perf_counter() >= deadline:
            return phase


def _measure(rounds: Iterator[list[Op]], seconds: float, trace: bool,
             ) -> tuple[list[Phase], list, dict]:
    """The timed phases of one run: one untraced window, or with
    ``trace`` an untraced and a traced window of half the time each.
    One untimed round runs first, so first-touch costs (imports, lazily
    built tables) are not charged to the first timed round."""
    _run_round(next(rounds), [], [])
    lrus = _process_lrus()
    record: list = []
    if not trace:
        return [_run_phase(rounds, seconds, lrus, record)], record, {}
    untraced = _run_phase(rounds, seconds / 2, lrus, record)
    tracer = tracing.Tracer()
    tracing.install_engine(tracer)
    try:
        traced = _run_phase(rounds, seconds / 2, lrus, record)
    finally:
        tracer.restore()
    layers = tracing.engine_metrics(tracer, traced.attempted)
    return [untraced, traced], record, layers


def _check(record: list, reference: ReferenceSweeps) -> tuple[int, list]:
    """Failed-op count and notes; every recorded op is compared."""
    failed = 0
    notes = []
    for status, outputs in record:
        if status == "error":
            failed += 1
            notes.append(f"op raised {outputs}")
            continue
        for grid, digest in outputs:
            if digest != reference.grid_digest(grid):
                failed += 1
                notes.append(f"mismatch against reference: {grid}")
                break
    return failed, notes[:5]


def _outcome(phases, record, layers, reference, setup_s, rss_mb,
             registry_ms, trace) -> Outcome:
    failed, notes = _check(record, reference)
    attempted = sum(phase.attempted for phase in phases)
    end_to_end = [latency_metrics(phase) for phase in phases]
    notes.append(
        f"{attempted} ops checked against the reference, {failed} failed "
        f"(error rate {failed / attempted:.6f}); "
        f"{sample_counts(phases[0])}"
    )
    if not trace:
        metrics = {
            "setup_s": setup_s,
            **end_to_end[0],
            "success_rate": 1.0 - failed / attempted,
            "peak_rss_mb": rss_mb,
        }
    else:
        metrics = {
            **layers,
            "registry.load_ms": registry_ms,
            **overhead(end_to_end[0]["op_p50_ms"],
                       end_to_end[1]["op_p50_ms"]),
        }
    return Outcome(attempted, failed, metrics, notes)


def sweep_cold(root: Path, seed: int, seconds: float,
               trace: bool) -> Outcome:
    """Each op: one cold ``sweep()`` of every kernel over a seeded grid,
    with cleared process-wide LRUs and the default fresh
    ``SuiteCaches()``. A round is one op per registry machine."""
    from repro.suite.memo import SuiteCaches

    setup_s = statistics.median(
        launch_seconds(root, LOAD_REGISTRY) for _ in range(SETUP_REPEATS)
    )
    registry_ms = registry_load_ms()
    engine = _Engine()
    rounds = inputs.cold_rounds(seed, engine.cores, list(engine.kernels))

    def op(grid: inputs.Grid):
        result = engine.sweep(grid, SuiteCaches())
        if result.failures:
            raise RuntimeError(f"{len(result.failures)} failures")
        return grid.predictions, [(grid, result.points)]

    def ops() -> Iterator[list[Op]]:
        for grids in rounds:
            yield [lambda grid=grid: op(grid) for grid in grids]

    phases, record, layers = _measure(ops(), seconds, trace)
    rss_mb = self_peak_rss_mb()
    reference = ReferenceSweeps(engine.machines, list(engine.kernels.values()))
    return _outcome(phases, record, layers, reference, setup_s, rss_mb,
                    registry_ms, trace)


#: What a fresh interpreter does in ``sweep_store``'s set-up.
WARM_STORE = "import sys; from perfbench.sweeps import warm; warm(sys.argv[1])"


def warm(directory: str) -> None:
    """Warm a fresh store at ``directory`` as ``repro warm`` + a priming
    sweep would: compile reports, SoA lowering, prediction pages and
    the whole sweep of the warmed grid."""
    from repro.store import ArtifactStore, set_default_store
    from repro.store.warm import warm_store
    from repro.suite.memo import SuiteCaches

    engine = _Engine()
    grid = inputs.store_grid(list(engine.kernels))
    store = ArtifactStore(Path(directory))
    previous = set_default_store(store)
    try:
        warm_store(store, engine.machines[grid.machine],
                   [engine.kernels[k] for k in grid.kernels])
        result = engine.sweep(grid, SuiteCaches.persistent(store))
    finally:
        set_default_store(previous)
    if result.failures:
        raise RuntimeError("priming sweep failed")


def sweep_store(root: Path, seed: int, seconds: float, trace: bool,
                scratch: Path) -> Outcome:
    """Set-up: a fresh interpreter warms a fresh store (the last one
    stays). Each op: a second-process session over it — cleared
    process-wide LRUs, a fresh ``ArtifactStore`` and
    ``SuiteCaches.persistent``, the warmed grid again, then one novel
    sub-grid. A round is :data:`STORE_ROUND_OPS` sessions."""
    from repro.store import ArtifactStore, set_default_store
    from repro.suite.memo import SuiteCaches

    engine = _Engine()
    registry_ms = registry_load_ms()
    warmed = inputs.store_grid(list(engine.kernels))
    samples = []
    for i in range(SETUP_REPEATS):
        directory = scratch / f"store-{i}"
        samples.append(launch_seconds(root, WARM_STORE, str(directory)))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(directory)
    setup_s = statistics.median(samples)
    subgrids = inputs.store_subgrids(seed, list(engine.kernels))

    def op(sub: inputs.Grid):
        store = ArtifactStore(directory)
        previous = set_default_store(store)
        try:
            caches = SuiteCaches.persistent(store)
            outputs = []
            for grid in (warmed, sub):
                result = engine.sweep(grid, caches)
                if result.failures:
                    raise RuntimeError(f"{len(result.failures)} failures")
                outputs.append((grid, result.points))
        finally:
            set_default_store(previous)
        return warmed.predictions + sub.predictions, outputs

    def ops() -> Iterator[list[Op]]:
        while True:
            yield [
                lambda sub=next(subgrids): op(sub)
                for _ in range(STORE_ROUND_OPS)
            ]

    phases, record, layers = _measure(ops(), seconds, trace)
    rss_mb = self_peak_rss_mb()
    reference = ReferenceSweeps(engine.machines, list(engine.kernels.values()))
    return _outcome(phases, record, layers, reference, setup_s, rss_mb,
                    registry_ms, trace)
