"""Fuzz-conformance suite: the abort invariant under the mutation corpus.

Layered on the connection contract (``test_connection_contract.py``): every
one of the twelve Connection/DuplexConnection implementations is driven
through a session whose client-to-server byte stream is mutated by one
deterministic :class:`~repro.netsim.fuzz.ChunkMutator`, and must

* convert the damage into a clean alert/close (or survive it harmlessly),
* never hang the pump,
* never leak an exception that is not a :class:`~repro.errors.ReproError`,
* never deliver plaintext that was not sent (authenticated protocols),
* leave neither endpoint half-open.

Every failing case is reproducible from its printed
``(seed, mutation_index)`` pair alone.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.fuzzing import (
    CASE_NAMES,
    UNAUTHENTICATED_CASES,
    _pki,
    build_parties,
    run_case,
    run_corpus,
    smoke_corpus,
)
from repro.netsim.fuzz import MUTATION_KINDS, ChunkMutator, FuzzCase, FuzzTap

SEEDS = (b"fz-0", b"fz-1", b"fz-2", b"fz-3", b"fz-4")


# ---------------------------------------------------------------------------
# The mutator itself
# ---------------------------------------------------------------------------


class TestChunkMutator:
    def test_replay_from_seed_and_index_alone(self):
        chunks = [b"alpha-record", b"beta-record", b"gamma-record", b"delta"]
        for kind in MUTATION_KINDS:
            first = ChunkMutator(b"replay", 1, kind)
            second = ChunkMutator(b"replay", 1, kind)
            out_a = [first.process_chunk(c) for c in chunks]
            out_b = [second.process_chunk(c) for c in chunks]
            assert out_a == out_b
            assert first.applied == second.applied

    def test_only_target_chunk_is_mutated(self):
        chunks = [b"one-one-one", b"two-two-two", b"three-three"]
        for kind in MUTATION_KINDS:
            if kind in ("reorder", "duplicate"):
                continue  # these change stream shape, not just one chunk
            mutator = ChunkMutator(b"target", 1, kind)
            outputs = [mutator.process_chunk(c) for c in chunks]
            assert outputs[0] == chunks[0]
            assert outputs[2] == chunks[2]
            assert outputs[1] != chunks[1]

    def test_reorder_holds_then_releases_behind_successor(self):
        mutator = ChunkMutator(b"swap", 0, "reorder")
        assert mutator.process_chunk(b"first") is None
        assert mutator.process_chunk(b"second") == b"second" + b"first"
        assert mutator.process_chunk(b"third") == b"third"

    def test_drbg_kind_selection_is_deterministic(self):
        kinds = {ChunkMutator(b"pick", 3).kind for _ in range(4)}
        assert len(kinds) == 1
        assert kinds.pop() in MUTATION_KINDS

    def test_distinct_indices_draw_distinct_streams(self):
        kinds = {ChunkMutator(b"spread", index).kind for index in range(16)}
        assert len(kinds) > 1  # the index personalizes the DRBG

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChunkMutator(b"x", 0, "melt")

    def test_fuzz_tap_filters_by_sender(self):
        class _Host:
            def __init__(self, name):
                self.name = name

        tap = FuzzTap(ChunkMutator(b"tap", 0, "truncate"), sender="client")
        attacker_path = tap.process(_Host("client"), b"mutate-me-now", None)
        bystander_path = tap.process(_Host("server"), b"leave-me-alone", None)
        assert attacker_path != b"mutate-me-now"
        assert bystander_path == b"leave-me-alone"


# ---------------------------------------------------------------------------
# The corpus: 12 implementations x 8 kinds x 5 seeds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", MUTATION_KINDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_mutation_conformance(name, kind):
    for seed in SEEDS:
        report = run_case(name, FuzzCase(seed, 1, kind))
        assert report.ok, report.describe()


@pytest.mark.parametrize("name", CASE_NAMES)
def test_drbg_chosen_kind_conformance(name):
    """Kind drawn from the DRBG, mutating a later chunk (data phase)."""
    for seed in SEEDS:
        report = run_case(name, FuzzCase(seed, 4))
        assert report.ok, report.describe()


@pytest.mark.parametrize("name", CASE_NAMES)
def test_replay_is_byte_identical(name):
    case = FuzzCase(b"replay-seed", 2)
    first = run_case(name, case)
    second = run_case(name, case)
    assert first.digest == second.digest
    assert first.events == second.events
    assert first.mutations == second.mutations
    assert first.kind == second.kind


def test_smoke_corpus_digest_is_pinned():
    """The smoke corpus replays bit for bit across processes and hash seeds:
    every wire byte, event type and alert (description and origin) of all
    twelve implementations is folded into this one digest."""
    digest = hashlib.sha256(
        "".join(report.digest for report in smoke_corpus()).encode()
    ).hexdigest()
    assert digest == "7dee67e7d228244a6f10dd8de75d767b4c8f1b71f6579b691f12a6280367fe84"


def test_full_corpus_digest_is_pinned():
    """The whole conformance sweep (12 implementations x 8 kinds x 5 seeds
    x 2 mutation indices) replays bit for bit: a changed pump order, round
    bound or harness script anywhere moves this digest."""
    digest = hashlib.sha256(
        "".join(report.digest for report in run_corpus()).encode()
    ).hexdigest()
    assert digest == "6566702e402582ea8fd0b9d8d7f543380b449f52dd943440d565d7fbc185b60c"


def test_builders_issue_no_certificate_after_the_pki_is_made():
    """Certificate serials count issues, so a builder that issued lazily
    would make a case's digest depend on which cases its process ran first
    (and a replay differ from the sweep that reported it)."""
    seed = b"serial-order"
    pki = _pki(seed)
    issued = pki.ca._serial
    for name in reversed(CASE_NAMES):
        build_parties(name, seed)
    assert pki.ca._serial == issued


def test_tampering_is_actually_observed():
    """The corpus is not vacuous: mutations hit live traffic and at least
    one authenticated implementation aborts through the alert plane."""
    saw_mutation = False
    saw_abort = False
    for name in CASE_NAMES:
        for seed in SEEDS[:2]:
            report = run_case(name, FuzzCase(seed, 1, "bit_flip"))
            saw_mutation = saw_mutation or bool(report.mutations)
            if name not in UNAUTHENTICATED_CASES:
                saw_abort = saw_abort or any(
                    "ConnectionClosed" in entry for entry in report.events
                )
    assert saw_mutation
    assert saw_abort


def test_case_names_cover_the_contract_matrix():
    """The fuzz corpus and the connection contract pin the same twelve."""
    assert len(CASE_NAMES) == 12
    assert set(CASE_NAMES) == {
        "tls",
        "mbtls",
        "mctls",
        "blindbox",
        "mbtls_middlebox",
        "split_tls",
        "splice_relay",
        "shared_key",
        "mctls_inspector",
        "blindbox_inspector",
        "mdtls",
        "mdtls_middlebox",
    }


def test_mutation_kinds_meet_corpus_floor():
    assert len(MUTATION_KINDS) >= 8
    assert len(SEEDS) >= 5
