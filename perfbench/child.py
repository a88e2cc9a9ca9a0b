"""Run one unit of one workload in this (fresh) process.

    python3 perfbench/child.py --workload NAME --seed N --index K --trace 0|1

Prints one JSON line: the workload's sample, plus the per-layer trace
when ``--trace 1``.  ``run.py`` starts one of these per unit so every
unit begins with cold process-global state (AEAD cache, lazily built
crypto tables, the observability plane) and its set-up includes import
and interpreter start-up: the unit's meter starts at process start.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main() -> None:
    import meter as meter_module

    meter = meter_module.Meter(from_process_start=True)
    meter_module.install()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    meter.lap()
    sample = workloads.WORKLOADS[args.workload](args.seed, args.index, tracer, meter)
    sample["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        sample["layers"] = tracer.layer_metrics(sample)
    json.dump(sample, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
