"""Benchmark fixtures: one shared PKI, deterministic RNG, report printing."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.bench.scenarios import Pki
from repro.crypto.drbg import HmacDrbg

# Benchmarks assert against the tier-1 suite's snapshots (e.g. Table 1)
# rather than keeping copies. Appended, so ``conftest`` here still wins.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(scope="session")
def bench_rng() -> HmacDrbg:
    return HmacDrbg(b"benchmarks")


@pytest.fixture(scope="session")
def bench_pki(bench_rng) -> Pki:
    return Pki(rng=bench_rng.fork(b"pki"))


@pytest.fixture
def rng(request) -> HmacDrbg:
    return HmacDrbg(request.node.nodeid.encode())


def emit(report: str) -> None:
    """Print a experiment report so it lands in the benchmark log."""
    print("\n" + report + "\n")
