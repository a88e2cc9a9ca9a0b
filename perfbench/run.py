"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {fleet_churn,chain_bulk,handshake_cold}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the directory holding ``src/repro``).
Each unit of work runs in its own child process (``child.py``), one at
a time, so every unit starts from cold process-global state and its
set-up time includes import.

Times are CPU time scaled to a reference speed (``meter.py``), so the
changing core speed of a shared host cancels out.

``--trace 0`` repeats units until ``--seconds`` have passed (at least
``MIN_UNITS``) and reports the end-to-end metrics.  ``--trace 1``
repeats pairs of unit 0, untraced then traced, and reports the median
per-layer metrics of the traced units plus ``trace_overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the metrics for people, under the per-workload names in
``README.md``.  See ``README.md`` for what each workload loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_UNITS = 3
#: fleet_churn units cycle through this many seeds, so a run of more
#: than FLEET_SEEDS units replays a seed and checks it bit for bit.
FLEET_SEEDS = 3
UNIT_TIMEOUT_S = 120
WORKLOADS = ("fleet_churn", "chain_bulk", "handshake_cold")

#: The percentile behind ``latency_ms_tail``: p99 over the 2,700
#: pooled fleet sessions, p90 within each unit elsewhere.
TAIL_PERCENTILE = {"fleet_churn": 99, "chain_bulk": 90, "handshake_cold": 90}

#: Per workload, the name each end-to-end metric goes by in README.md.
ALIASES = {
    "fleet_churn": {
        "ops_per_s": "fleet_sessions_per_s",
        "latency_ms_p50": "fleet_handshake_virtual_ms_p50",
        "latency_ms_tail": "fleet_handshake_virtual_ms_p99",
        "kib_per_session": "fleet_kib_per_session",
    },
    "chain_bulk": {
        "ops_per_s": "chain_records_per_s",
        "latency_ms_p50": "chain_record_ms_p50",
        "latency_ms_tail": "chain_record_ms_p90",
        "kib_per_session": "chain_kib_per_session",
    },
    "handshake_cold": {
        "ops_per_s": "handshakes_per_s",
        "latency_ms_p50": "handshake_ms_p50",
        "latency_ms_tail": "handshake_ms_p90",
        "kib_per_session": "handshake_kib_per_session",
    },
}
UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "kib_per_session": "KiB",
}


class BenchmarkError(Exception):
    """The benchmark could not run; no result line is printed."""


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, as the fleet report computes it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def run_unit(root: str, workload: str, seed: int, index: int, trace: int) -> dict:
    """Run one unit in a child process; returns its sample."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--index", str(index), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True,
            timeout=UNIT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} unit {index} ran past {UNIT_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload} unit {index} exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    sample["index"] = index
    return sample


def unit_index(workload: str, position: int) -> int:
    return position % FLEET_SEEDS if workload == "fleet_churn" else position


def run_units(root: str, workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Run units until ``seconds`` have passed.

    Untraced runs make at least MIN_UNITS units.  Traced runs make pairs
    of unit 0, untraced then traced, at least one pair: the same inputs
    give the same counts, and the pair gives the tracing overhead.
    """
    started = time.monotonic()
    samples: list[dict] = []
    step, least = (2, 2) if trace else (1, MIN_UNITS)
    while True:
        position = len(samples)
        if trace:
            samples.append(run_unit(root, workload, seed, 0, position % 2))
        else:
            samples.append(run_unit(root, workload, seed, unit_index(workload, position), 0))
        elapsed = time.monotonic() - started
        if len(samples) >= least and len(samples) % step == 0:
            if elapsed + elapsed / len(samples) * step > seconds:
                return samples


def per_layer(samples: list[dict]) -> dict[str, float]:
    """Median of each per-layer metric over the traced units; the low
    median, so a count stays a count."""
    traced = [sample for sample in samples if "layers" in sample]
    plain = [sample for sample in samples if "layers" not in sample]
    metrics = {
        name: statistics.median_low(sample["layers"][name] for sample in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace_overhead_frac"] = (
        statistics.median(sample["timed_s"] for sample in traced)
        / statistics.median(sample["timed_s"] for sample in plain)
        - 1.0
    )
    return metrics


def replay_mismatches(workload: str, samples: list[dict]) -> list[int]:
    """fleet_churn units that replayed a seed, traced or not, with other
    digests or latencies than its first unit."""
    if workload != "fleet_churn":
        return []
    first: dict[int, dict] = {}
    mismatches = []
    for position, sample in enumerate(samples):
        earlier = first.setdefault(sample["index"], sample)
        if any(sample[key] != earlier[key] for key in ("digests", "latencies_ms")):
            mismatches.append(position)
    return mismatches


def end_to_end(workload: str, samples: list[dict]) -> dict[str, float]:
    """Each metric as a median over units, so one odd unit does not
    move it; latency percentiles are taken per unit."""
    tail = TAIL_PERCENTILE[workload]
    if workload == "fleet_churn":
        # Virtual latencies: the first unit of each seed, pooled, so the
        # numbers depend on --seed alone, not on how many units ran.
        pooled = [value for sample in samples[:FLEET_SEEDS] for value in sample["latencies_ms"]]
        p50, p_tail = percentile(pooled, 50), percentile(pooled, tail)
    else:
        p50 = statistics.median(percentile(s["latencies_ms"], 50) for s in samples)
        p_tail = statistics.median(percentile(s["latencies_ms"], tail) for s in samples)
    return {
        "setup_s": statistics.median(sample["setup_s"] for sample in samples),
        "peak_rss_mib": statistics.median(sample["peak_rss_kib"] for sample in samples) / 1024,
        "ops_per_s": statistics.median(sample["ops"] / sample["timed_s"] for sample in samples),
        "latency_ms_p50": p50,
        "latency_ms_tail": p_tail,
        "kib_per_session": statistics.median(sample["kib_per_session"] for sample in samples),
    }


def human_lines(workload: str, metrics: dict, attempted: int, failed: int) -> list[str]:
    lines = []
    for name, value in metrics.items():
        alias = ALIASES[workload].get(name, name)
        lines.append(f"{workload} {alias} = {value:.6g} {metrics_unit(name)}  [{name}]")
        if name == "ops_per_s" and workload == "chain_bulk":
            mb = value * 16384 / 1e6
            lines.append(f"{workload} chain_mb_per_s = {mb:.6g} MB/s  [ops_per_s x 16 KiB]")
    frac = failed / attempted
    lines.append(f"{workload} failed_frac = {frac:.6g} ratio  [failed / attempted]")
    return lines


def metrics_unit(name: str) -> str:
    return UNITS.get(name) or LAYER_METRICS[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2
    try:
        samples = run_units(root, args.workload, args.seed, args.seconds, args.trace)
        metrics = per_layer(samples) if args.trace else end_to_end(args.workload, samples)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = [text for sample in samples for text in sample["failures"]]
    failed = sum(sample["failed"] for sample in samples)
    for position in replay_mismatches(args.workload, samples):
        failures.append(f"unit {position} did not replay its seed bit for bit")
        failed += samples[position]["attempted"] - samples[position]["failed"]
    attempted = sum(sample["attempted"] for sample in samples)
    for text in failures[:20]:
        print(f"{args.workload} FAILED {text}")
    for line in human_lines(args.workload, metrics, attempted, failed):
        print(line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
