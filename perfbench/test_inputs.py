"""Input generation is deterministic and keeps its promises.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import itertools

from perfbench import inputs

MACHINES = {"big": 128, "mid": 18, "tiny": 2}
KERNELS = [f"K{i:02d}" for i in range(64)]


def _take(iterator, n):
    return list(itertools.islice(iterator, n))


def test_thread_ladder():
    assert inputs.thread_ladder(64) == (1, 2, 4, 8, 16, 32, 64)
    assert inputs.thread_ladder(18) == (1, 2, 4, 8, 16, 18)
    assert inputs.thread_ladder(1) == (1,)


def test_same_seed_same_inputs():
    def draw(seed):
        return (
            _take(inputs.cold_rounds(seed, MACHINES, KERNELS), 50),
            _take(inputs.store_subgrids(seed, KERNELS), 200),
            _take(inputs.miss_requests(seed, MACHINES, KERNELS), 500),
            inputs.serve_warmup(seed, MACHINES, KERNELS),
        )

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_cold_rounds_hold_one_grid_per_machine_on_its_ladder():
    for grids in _take(inputs.cold_rounds(3, MACHINES, KERNELS), 200):
        assert sorted(g.machine for g in grids) == sorted(MACHINES)
        for grid in grids:
            ladder = inputs.thread_ladder(MACHINES[grid.machine])
            assert set(grid.threads) <= set(ladder)
            assert len(grid.threads) == min(3, len(ladder))
            assert len(grid.placements) == 2
            assert grid.kernels == tuple(KERNELS)


def test_store_subgrids_are_novel_and_inside_the_warmed_grid():
    warmed = inputs.store_grid(KERNELS)
    subgrids = _take(inputs.store_subgrids(5, KERNELS), 3000)
    assert len(set(subgrids)) == len(subgrids)
    assert warmed not in subgrids
    for grid in subgrids:
        assert set(grid.threads) <= set(warmed.threads)
        assert set(grid.placements) <= set(warmed.placements)
        assert set(grid.precisions) <= set(warmed.precisions)
        assert set(grid.kernels) <= set(warmed.kernels)


def test_miss_keys_never_repeat_and_never_meet_the_warm_up():
    timed = list(inputs.miss_requests(11, MACHINES, KERNELS))
    assert len(set(timed)) == len(timed)
    assert all(r.threads != inputs.WARMUP_THREADS for r in timed)
    sweeps, predicts = inputs.serve_warmup(11, MACHINES, KERNELS)
    assert not set(predicts) & set(timed)
    assert all(s["threads"] == [inputs.WARMUP_THREADS] for s in sweeps)
    assert {s["cpu"] for s in sweeps} == set(MACHINES)
