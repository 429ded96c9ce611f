"""Shared pieces: timing records, statistics, references, the outcome.

Every workload returns an :class:`Outcome`; :mod:`perfbench.run`
prints it. Timings are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux, the same clock in every process on the host), so spans taken in
the server process line up with the client's timestamps.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The sweeps set up this many times per run (serve_miss once per
#: round); ``setup_s`` is the median.
SETUP_REPEATS = 5
#: A phase is cut into this many blocks of consecutive whole rounds
#: (fewer when it has fewer rounds); each timing metric is the median
#: of its value in each block.
BLOCKS = 12


@dataclass
class Phase:
    """One timed window, as rounds of ops of a fixed composition.

    A round holds the same mix of op costs every time (one sweep per
    registry machine, a fixed number of store sessions, a fixed number
    of requests to a freshly warmed server), so a block of whole rounds
    never holds a stretch of cheap or costly ops alone. Each round keeps
    ``(latency_s, predictions)`` per op and the time it covered: summed
    op time for one in-process client, wall time for the serve clients.
    A round with a failed op is counted in ``failed`` and not timed.
    """

    rounds: list[tuple[list[tuple[float, int]], float]] = field(
        default_factory=list
    )
    attempted: int = 0
    failed: int = 0

    def add(self, samples: list[tuple[float, int]], covered_s: float,
            failed: int) -> None:
        self.attempted += len(samples) + failed
        self.failed += failed
        if not failed:
            self.rounds.append((samples, covered_s))


@dataclass
class Outcome:
    """What one benchmark run reports."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def blocks(phase: Phase) -> list[list]:
    """A phase's rounds, cut into :data:`BLOCKS` runs of consecutive
    rounds of near-equal length."""
    rounds = phase.rounds
    if not rounds:
        raise RuntimeError("no round completed without a failed op")
    k = min(BLOCKS, len(rounds))
    return [rounds[i * len(rounds) // k:(i + 1) * len(rounds) // k]
            for i in range(k)]


def latency_metrics(phase: Phase) -> dict[str, float]:
    """``op_p50_ms``, ``op_p90_ms`` and ``predictions_per_s``: each is
    the median over the phase's blocks of its value in one block.

    A shared host slows down for stretches of seconds to a minute; a
    stretch that covers less than half of the blocks moves none of the
    medians. Every op of every block counts; none is dropped or ranked
    by speed.
    """
    per_block = []
    for block in blocks(phase):
        latencies = [lat for samples, _ in block for lat, _ in samples]
        per_block.append((
            statistics.median(latencies),
            percentile(latencies, 90),
            sum(n for samples, _ in block for _, n in samples)
            / sum(covered for _, covered in block),
        ))
    p50, p90, rate = (statistics.median(col) for col in zip(*per_block))
    return {"op_p50_ms": p50 * 1e3, "op_p90_ms": p90 * 1e3,
            "predictions_per_s": rate}


def sample_counts(phase: Phase) -> str:
    """How many ops, rounds and blocks the timing metrics rest on."""
    found = blocks(phase)
    return (
        f"p50, p90 and rate are medians over {len(found)} blocks of "
        f"{min(map(len, found))}-{max(map(len, found))} rounds; "
        f"{sum(len(s) for s, _ in phase.rounds)} ops in "
        f"{len(phase.rounds)} rounds"
    )


def overhead(untraced_ms: float, traced_ms: float) -> dict[str, float]:
    """Tracing overhead: traced p50 minus untraced p50."""
    return {
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_ratio": traced_ms / untraced_ms - 1.0,
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def python_env(root: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports ``src/repro``
    and this benchmark."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


#: What a fresh interpreter does in ``sweep_cold``'s set-up: import the
#: package, load every machine and the kernel suite.
LOAD_REGISTRY = (
    "from repro.registry import Registry\n"
    "from repro.kernels.registry import all_kernels\n"
    "Registry().machines(); all_kernels()\n"
)


def launch_seconds(root: Path, code: str, *args: str) -> float:
    """Wall time of a fresh interpreter running ``code`` with ``args``,
    from launch to exit."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, *args], env=python_env(root),
        cwd=root, check=True, timeout=120,
    )
    return time.perf_counter() - started


def registry_load_ms() -> float:
    """Median in-process registry load: parse and build every machine."""
    from repro.registry import Registry

    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        Registry().machines()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def _digest(rows) -> bytes:
    """Order-independent digest of (threads, placement, precision,
    kernel, seconds) rows; seconds enter bit for bit."""
    h = hashlib.blake2b(digest_size=16)
    for threads, placement, precision, kernel, seconds in sorted(rows):
        h.update(f"{threads}|{placement}|{precision}|{kernel}|".encode())
        h.update(struct.pack("<d", seconds))
    return h.digest()


def points_digest(points) -> bytes:
    """Digest of a sweep result's points."""
    return _digest(
        (p.threads, p.placement.value, p.precision.label, p.kernel,
         p.seconds)
        for p in points
    )


class ReferenceSweeps:
    """Reference predictions, one configuration at a time.

    Each configuration runs once through ``sweep`` under
    ``reference_mode()`` with ``SuiteCaches.disabled()`` over every
    kernel, and is reused by every op that includes it. Points of a
    sweep are independent (no noise, one run), so a grid's reference
    is the union of its configurations' references.
    """

    def __init__(self, machines: dict, kernels: list) -> None:
        self._machines = machines
        self._kernels = kernels
        self._configs: dict[tuple, dict[str, float]] = {}

    def config(self, machine: str, threads: int, placement: str,
               precision: str) -> dict[str, float]:
        key = (machine, threads, placement, precision)
        found = self._configs.get(key)
        if found is None:
            from repro.perfmodel.placement import reference_mode
            from repro.suite.config import Placement, Precision
            from repro.suite.memo import SuiteCaches
            from repro.suite.sweep import sweep

            with reference_mode():
                result = sweep(
                    self._machines[machine], self._kernels,
                    threads=[threads],
                    placements=[Placement.from_label(placement)],
                    precisions=[Precision.from_label(precision)],
                    caches=SuiteCaches.disabled(),
                )
            if result.failures:
                raise RuntimeError(f"reference sweep failed for {key}")
            found = {p.kernel: p.seconds for p in result.points}
            self._configs[key] = found
        return found

    def grid_digest(self, grid) -> bytes:
        """The digest a correct sweep of ``grid`` produces."""
        rows = []
        for threads in grid.threads:
            for placement in grid.placements:
                for precision in grid.precisions:
                    ref = self.config(grid.machine, threads, placement,
                                      precision)
                    rows.extend(
                        (threads, placement, precision, kernel,
                         ref[kernel])
                        for kernel in grid.kernels
                    )
        return _digest(rows)

