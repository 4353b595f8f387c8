"""drivetriad benchmark: time the CLI the way a user runs it.

    python3 perfbench/run.py --workload city_grid --seed 1 --seconds 34 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's own ``src/``. With ``--trace 0`` each timed operation is one or
two CLI invocations, each a single child process, run one at a time
(``pipeline`` then ``stats`` for a drive, ``classify`` for the transcript
corpus); the end-to-end metrics are medians over the operations run in
``--seconds``. With ``--trace 1`` the same operations run in this process,
alternating untraced and traced, and the per-layer metrics come from spans
recorded around the calls into each module (see spans.py).

Every operation is checked: exit code 0, outputs byte-identical across the
run's operations, texts and class sets equal to the synth ground truth,
and for the reference seed the digest recorded in reference.json. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics, with the metric names and units of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("city_grid", "highway_10hz", "classify_corpus")
DEFAULT_SEED = 1


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drivetriad" / "cli.py").is_file():
        print(f"error: no drivetriad sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import drivetriad

    if Path(drivetriad.__file__).resolve().parent != SRC / "drivetriad":
        print(f"error: imported drivetriad from {drivetriad.__file__}", file=sys.stderr)
        return 2
    import harness

    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = harness.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = harness.trace if args.trace else harness.measure
        result = run(args.workload, args.seed, args.seconds, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in result["problems"] + result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        print(f"error: metrics {sorted(result['metrics'])} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    correct = not result["problems"] and not result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
