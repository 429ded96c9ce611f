"""Seeded inputs for every workload.

Everything a workload sends to the program is drawn here from
``random.Random(seed)``: the same seed gives the same grids and the
same request sequence. The generators see only machine names, core
counts and kernel names, so the program under test receives nothing
but the generated inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

PLACEMENTS = ("block", "cyclic", "cluster")
PRECISIONS = ("fp32", "fp64")

#: sweep_store's warmed grid: the paper's machine over the acceptance
#: grid of ``benchmarks/bench_store.py``. Fixed across seeds so that a
#: seed changes which sub-grids are novel, not how big the store is.
STORE_MACHINE = "sg2042"
STORE_THREADS = (1, 4, 8, 16, 32, 64)
STORE_PLACEMENTS = ("block", "cyclic")
STORE_PRECISIONS = ("fp32", "fp64")

#: serve warm-up compiles at this thread count; timed serve traffic
#: never sends it, so no warm-up key can answer a timed request.
WARMUP_THREADS = 1


@dataclass(frozen=True)
class Grid:
    """One ``sweep()`` call: a machine, its axes and a kernel list."""

    machine: str
    threads: tuple[int, ...]
    placements: tuple[str, ...]
    precisions: tuple[str, ...]
    kernels: tuple[str, ...]

    @property
    def predictions(self) -> int:
        """Kernel x configuration predictions one sweep of it delivers."""
        return (
            len(self.threads) * len(self.placements)
            * len(self.precisions) * len(self.kernels)
        )


@dataclass(frozen=True)
class Request:
    """One ``/predict`` request; the tuple is also its cache key."""

    machine: str
    kernel: str
    threads: int
    placement: str
    precision: str

    def body(self) -> dict:
        return {
            "cpu": self.machine,
            "kernel": self.kernel,
            "threads": self.threads,
            "placement": self.placement,
            "precision": self.precision,
        }


def thread_ladder(cores: int) -> tuple[int, ...]:
    """Powers of two below ``cores``, then ``cores`` itself."""
    ladder = []
    t = 1
    while t < cores:
        ladder.append(t)
        t *= 2
    ladder.append(cores)
    return tuple(ladder)


def _pick(rng: random.Random, values: Sequence, k: int) -> tuple:
    """``k`` distinct values (all when fewer), in their given order."""
    if k >= len(values):
        return tuple(values)
    chosen = set(rng.sample(range(len(values)), k))
    return tuple(v for i, v in enumerate(values) if i in chosen)


def cold_rounds(
    seed: int, machines: Mapping[str, int], kernels: Sequence[str]
) -> Iterator[tuple[Grid, ...]]:
    """sweep_cold's endless sequence of rounds.

    A round is one grid per registry machine, in shuffled order. Each
    grid is three rungs of the machine's thread ladder, two of the three
    placements and both precisions over all kernels. The subset sizes
    are fixed, so every round has the same mix of op costs; the seed
    picks order and axes.
    """
    rng = random.Random(seed)
    names = sorted(machines)
    kernels = tuple(kernels)
    while True:
        rng.shuffle(names)
        yield tuple(
            Grid(
                machine=name,
                threads=_pick(rng, thread_ladder(machines[name]), 3),
                placements=_pick(rng, PLACEMENTS, 2),
                precisions=PRECISIONS,
                kernels=kernels,
            )
            for name in names
        )


def store_grid(kernels: Sequence[str]) -> Grid:
    """The grid sweep_store warms and then restores on every op."""
    return Grid(
        machine=STORE_MACHINE,
        threads=STORE_THREADS,
        placements=STORE_PLACEMENTS,
        precisions=STORE_PRECISIONS,
        kernels=tuple(kernels),
    )


def store_subgrids(seed: int, kernels: Sequence[str]) -> Iterator[Grid]:
    """sweep_store's novel sub-grids: never the same grid twice.

    Each is three of the warmed thread counts, both placements, one
    precision and 48 of the 64 kernels — every configuration lies in
    the warmed grid (so prediction pages are read from disk), but the
    kernel list and axes make a whole-sweep key the store has not seen.
    """
    rng = random.Random(seed)
    kernels = tuple(kernels)
    seen: set[Grid] = set()
    while True:
        grid = Grid(
            machine=STORE_MACHINE,
            threads=_pick(rng, STORE_THREADS, 3),
            placements=STORE_PLACEMENTS,
            precisions=(rng.choice(STORE_PRECISIONS),),
            kernels=_pick(rng, kernels, 48),
        )
        if grid not in seen:
            seen.add(grid)
            yield grid


def _timed_keys(
    machines: Mapping[str, int], kernels: Sequence[str]
) -> list[Request]:
    """Every ``/predict`` key timed serve traffic may send."""
    return [
        Request(name, kernel, threads, placement, precision)
        for name in sorted(machines)
        for threads in thread_ladder(machines[name])
        if threads != WARMUP_THREADS
        for kernel, placement, precision in itertools.product(
            kernels, PLACEMENTS, PRECISIONS
        )
    ]


def serve_warmup(
    seed: int, machines: Mapping[str, int], kernels: Sequence[str]
) -> tuple[list[dict], list[Request]]:
    """serve_miss's warm-up traffic, sent to every fresh server.

    One ``/sweep`` body per machine compiles every (machine, kernel,
    precision) at :data:`WARMUP_THREADS`, then a few ``/predict``
    requests at that thread count run the coalescer/executor path once
    per machine.
    """
    rng = random.Random(seed ^ 0x5EED)
    sweeps = [
        {
            "cpu": name,
            "kernels": list(kernels),
            "threads": [WARMUP_THREADS],
            "placements": ["block"],
            "precisions": list(PRECISIONS),
        }
        for name in sorted(machines)
    ]
    predicts = [
        Request(
            name, rng.choice(kernels), WARMUP_THREADS,
            rng.choice(PLACEMENTS), rng.choice(PRECISIONS),
        )
        for name in sorted(machines)
        for _ in range(2)
    ]
    return sweeps, predicts


def miss_requests(
    seed: int, machines: Mapping[str, int], kernels: Sequence[str]
) -> Iterator[Request]:
    """serve_miss's timed requests: a seeded permutation of every key,
    so no key repeats within a run (the iterator ends when the key
    space does — about 17k keys, far beyond one run's traffic)."""
    keys = _timed_keys(machines, kernels)
    random.Random(seed).shuffle(keys)
    return iter(keys)
