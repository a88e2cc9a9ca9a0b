"""Checks on the benchmark itself: tracer reconciliation, determinism, meter.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Wrapper counts must equal the program's own counters wherever both
exist; a wrapper that misses a name imported by value shows up here as
a count that is too low.  Units are shrunk so the file runs in about a
minute; the code paths are the benchmark's own.
"""

from __future__ import annotations

import builtins
import contextlib
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import meter  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

from repro import obs  # noqa: E402
from repro.bench import fleet  # noqa: E402
from repro.tls import record_layer  # noqa: E402


@pytest.fixture
def tracer():
    installed = Tracer()
    installed.install()
    try:
        yield installed
    finally:
        installed.uninstall()


@pytest.fixture
def small_units(monkeypatch):
    monkeypatch.setattr(workloads, "FLEET_SESSIONS", 60)
    monkeypatch.setattr(workloads, "CHAIN_RECORDS", 4)
    monkeypatch.setattr(workloads, "CHAIN_WARMUP_RECORDS", 2)
    monkeypatch.setattr(workloads, "HANDSHAKE_ROUNDS", 1)


@pytest.fixture
def captured_planes(monkeypatch):
    """Keep every observability plane ``obs.scoped`` installs."""
    planes = []
    scoped = obs.scoped

    @contextlib.contextmanager
    def keeping(*args, **kwargs):
        with scoped(*args, **kwargs) as plane:
            planes.append(plane)
            yield plane

    monkeypatch.setattr(obs, "scoped", keeping)
    return planes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_aead_records_match_record_plane_counters(name, tracer, small_units):
    sample = workloads.WORKLOADS[name](11, 0, tracer)
    assert sample["failed"] == 0, sample["failures"]
    counts = tracer.counts
    assert counts["aead_records_sealed"] == tracer.obs_counts["records_sealed"] > 0
    assert counts["aead_records_opened"] == tracer.obs_counts["records_opened"] > 0
    layers = tracer.layer_metrics(sample)
    assert set(layers) | {"trace_overhead_frac"} == set(LAYER_METRICS)


def test_events_and_key_setups_match_fleet_report(tracer, captured_planes):
    record_layer.reset_aead_cache()
    config = replace(fleet.quick_config(b"reconcile"), sessions=60)
    tracer.start()
    report = fleet.run_fleet(config)
    tracer.stop()
    assert tracer.counts["events"] == report["sim"]["events"]
    (plane,) = captured_planes
    # On a cold cache without evictions every miss is one cache entry.
    assert plane.metrics.counter_value("aead_cache.evictions") == 0
    assert tracer.counts["aead_for_misses"] == plane.metrics.gauge_value("aead_cache.size") > 0
    assert tracer.counts["aead_key_setups"] >= tracer.counts["aead_for_misses"]


def test_tracer_uninstall_restores_every_name():
    from repro.core import keys

    before = (keys.aead_for, record_layer.aead_for, fleet.SessionOrchestrator.submit)
    installed = Tracer()
    installed.install()
    assert keys.aead_for is not before[0]
    installed.uninstall()
    assert (keys.aead_for, record_layer.aead_for, fleet.SessionOrchestrator.submit) == before


def test_fleet_unit_repeats_bit_for_bit_and_second_seed_runs_clean(small_units):
    first = workloads.fleet_churn(5, 0)
    again = workloads.fleet_churn(5, 0)
    other = workloads.fleet_churn(6, 0)
    for key in ("digests", "latencies_ms", "sim_events"):
        assert first[key] == again[key]
    assert first["digests"] != other["digests"]
    for sample in (first, again, other):
        assert sample["failed"] == 0, sample["failures"]
        assert sample["ops"] == workloads.FLEET_SESSIONS


def test_sliced_timed_run_fires_what_run_fleet_fires(small_units):
    sample = workloads.fleet_churn(5, 0)
    config = replace(
        fleet.quick_config(workloads.seed_bytes(5, 0)), sessions=workloads.FLEET_SESSIONS
    )
    record_layer.reset_aead_cache()
    report = fleet.run_fleet(config)
    assert sample["digests"] == report["digests"]
    assert sample["sim_events"] == report["sim"]["events"]


def test_meter_reads_reference_work_at_its_nominal_time(monkeypatch):
    """A lap of either reference's own work reads about its nominal time."""
    monkeypatch.setattr(builtins, "pow", builtins.pow)  # restored afterwards
    meter.install()
    ratios: dict[str, list[float]] = {"interp": [], "modexp": []}
    for _ in range(5):
        laps = meter.Meter()
        for _ in range(10):
            meter._interp_loop(meter.INTERP_PASSES)
        ratios["interp"].append(laps.lap() / (10 * meter.INTERP_S))
        for _ in range(10):
            pow(meter._BASE, meter._EXPONENT, meter._MODULUS)
        ratios["modexp"].append(laps.lap() / (10 * meter.MODEXP_S))
    for name, values in ratios.items():
        assert 0.7 < statistics.median(values) < 1.4, (name, values)


def test_tracing_does_not_change_fleet_behaviour(tracer, small_units):
    traced = workloads.fleet_churn(5, 0, tracer)
    tracer.uninstall()
    plain = workloads.fleet_churn(5, 0)
    assert traced["digests"] == plain["digests"]
    assert traced["latencies_ms"] == plain["latencies_ms"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
