"""The phases benchmark.

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 30 --trace 0

Runs one workload (optimize, scan, finite-size, generic; see
workloads.py) in a closed loop for about --seconds, checks every output
against references off the timed path, and prints a human-readable summary
followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics (harness.py lists both).
The full run record, and the spans of a traced run, are written under
.perfbench-out/ at the checkout root.

`phases` is imported from the checkout's src/; without it the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys

import warmup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["optimize", "scan", "finite-size", "generic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    warmup.pin_threads()
    try:
        warmup.import_phases()
    except warmup.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness

    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.ProbeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
