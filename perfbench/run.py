"""The repository's benchmark: one command, one workload per call.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs an untraced and a traced window of half the time
each and prints every per-layer metric, plus the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Every op is checked against a reference after the timed window; a
failed check counts against ``success_rate`` and ``correct``.

See ``perfbench/WORKLOADS.md`` for what each workload stresses and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_cold", "sweep_store", "serve_miss")


def _run(workload: str, seed: int, seconds: float, trace: bool,
         scratch: Path):
    if workload.startswith("sweep_"):
        from perfbench import sweeps

        if workload == "sweep_cold":
            return sweeps.sweep_cold(ROOT, seed, seconds, trace)
        return sweeps.sweep_store(ROOT, seed, seconds, trace, scratch)
    from perfbench import serving

    return serving.serve(ROOT, seed, seconds, trace, scratch)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        outcome = _run(args.workload, args.seed, args.seconds,
                       bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = dict(outcome.metrics)
    unknown = sorted(set(values) - {m["name"] for m in wanted})
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in wanted:
        # A layer the workload never enters reads zero; an end-to-end
        # metric must always be measured.
        value = values.get(m["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} = {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {value:.6g} {m['unit']}")
    for note in outcome.notes:
        print(f"{args.workload} note: {note}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
