"""Zero-copy receive path: ``pop_record_views`` must parse exactly like
``pop_records`` while materializing one snapshot per flight instead of
one ``bytes`` per record, and the record plane must hand those views to
the batched open without copying. ``RecordPlane.open_flight``, the one
receive path every record-reading party walks, batches exactly the runs
of application data it may."""

import pytest

from repro.errors import DecodeError, IntegrityError
from repro.io.record_plane import RecordPlane
from repro.tls.ciphersuites import TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256
from repro.tls.record_layer import ConnectionState
from repro.wire.records import ContentType, Record, RecordBuffer


def _wire(*payloads, content_type=ContentType.APPLICATION_DATA):
    return b"".join(
        Record(content_type, payload).encode() for payload in payloads
    )


class TestPopRecordViews:
    def test_matches_pop_records(self):
        wire = _wire(b"alpha", b"", b"b" * 1000) + _wire(
            b"\x01", content_type=ContentType.CHANGE_CIPHER_SPEC
        )
        copying, views = RecordBuffer(), RecordBuffer()
        copying.feed(wire)
        views.feed(wire)
        expected = copying.pop_records()
        got = views.pop_record_views()
        assert len(got) == len(expected)
        for view_record, record in zip(got, expected):
            assert view_record.content_type == record.content_type
            assert view_record.version == record.version
            assert bytes(view_record.payload) == record.payload

    def test_payloads_share_one_snapshot(self):
        buffer = RecordBuffer()
        buffer.feed(_wire(b"one", b"two", b"three"))
        records = buffer.pop_record_views()
        payloads = [record.payload for record in records]
        assert all(isinstance(payload, memoryview) for payload in payloads)
        # One materialization per flight: every view slices the same base.
        base = payloads[0].obj
        assert all(payload.obj is base for payload in payloads)

    def test_partial_record_retained(self):
        buffer = RecordBuffer()
        wire = _wire(b"complete") + _wire(b"partial-record")[:-3]
        buffer.feed(wire)
        records = buffer.pop_record_views()
        assert [bytes(r.payload) for r in records] == [b"complete"]
        assert buffer.pending_bytes == len(_wire(b"partial-record")) - 3
        buffer.feed(_wire(b"x")[-3:][:0])  # no-op feed keeps state intact
        buffer.feed(_wire(b"partial-record")[-3:])
        assert [bytes(r.payload) for r in buffer.pop_record_views()] == [
            b"partial-record"
        ]

    def test_empty_buffer(self):
        assert RecordBuffer().pop_record_views() == []

    def test_oversize_length_raises_even_when_incomplete(self):
        # Same error order as pop_records: a hostile length field trips
        # before the record body ever arrives.
        for method in ("pop_records", "pop_record_views"):
            buffer = RecordBuffer()
            buffer.feed(bytes([23, 3, 3, 0xFF, 0xFF]))
            with pytest.raises(DecodeError):
                getattr(buffer, method)()

    def test_unknown_content_type_only_on_complete_record(self):
        header = bytes([99, 3, 3, 0, 4])
        for method in ("pop_records", "pop_record_views"):
            buffer = RecordBuffer()
            buffer.feed(header)  # incomplete: no error yet
            assert getattr(buffer, method)() == []
            buffer.feed(b"body")
            with pytest.raises(DecodeError):
                getattr(buffer, method)()


class _BatchCountingState(ConnectionState):
    """A read state that records the size of every batched open."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.batches: list[int] = []

    def unprotect_many(self, records):
        self.batches.append(len(records))
        return super().unprotect_many(records)


_DATA, _ALERT = ContentType.APPLICATION_DATA, ContentType.ALERT


class TestPlaneReceivePath:
    def _sealed_wire(self, payloads):
        return self._sealed_flight([(_DATA, p) for p in payloads])

    def _sealed_flight(self, items):
        suite = TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256
        key = bytes(range(suite.key_length))
        fixed_iv = b"\x0b" * suite.fixed_iv_length
        writer = ConnectionState(suite, key, fixed_iv)
        wire = b"".join(r.encode() for r in writer.protect_many(items))
        return wire, _BatchCountingState(suite, key, fixed_iv)

    def _walk(self, items, batch_ready=lambda: True, on_record=None):
        """Walk one sealed flight as a caller would: open what the walk
        did not. Returns (plane, [(payload, batched)])."""
        wire, read_state = self._sealed_flight(items)
        plane = RecordPlane()
        plane.read_state = read_state
        plane.feed(wire)
        opened = []
        for record, plaintext in plane.open_flight(plane.pop_records(), batch_ready):
            if on_record is not None:
                on_record(record)
            batched = plaintext is not None
            if not batched:
                plaintext = plane.unprotect(record)
            opened.append((plaintext, batched))
        return plane, opened

    def test_each_non_data_record_splits_a_run(self):
        items = [
            (_DATA, b"d0"), (_DATA, b"d1"), (_ALERT, b"\x01\x00"),
            (_DATA, b"d2"), (_DATA, b"d3"), (_DATA, b"d4"), (_ALERT, b"\x01\x00"),
            (_DATA, b"d5"),
        ]
        plane, opened = self._walk(items)
        assert [plaintext for plaintext, _ in opened] == [p for _, p in items]
        assert [batched for _, batched in opened] == [
            True, True, False, True, True, True, False, False,
        ]
        assert plane.read_state.batches == [2, 3]
        assert plane.read_state.sequence == len(items)

    def test_no_batch_while_not_ready(self):
        items = [(_DATA, b"d%d" % i) for i in range(4)]
        plane, opened = self._walk(items, batch_ready=lambda: False)
        assert opened == [(p, False) for _, p in items]
        assert plane.read_state.batches == []

    def test_readiness_is_checked_at_each_run(self):
        # The first record "installs keys": only the run after it batches.
        ready = []
        items = [(_ALERT, b"\x01\x00"), (_DATA, b"a"), (_DATA, b"b")]
        plane, opened = self._walk(
            items, batch_ready=lambda: bool(ready), on_record=ready.append
        )
        assert [batched for _, batched in opened] == [False, True, True]
        assert plane.read_state.batches == [2]

    def test_single_data_record_is_not_batched(self):
        plane, opened = self._walk([(_DATA, b"solo")])
        assert opened == [(b"solo", False)]
        plane, opened = self._walk(
            [(_ALERT, b"\x01\x00"), (_DATA, b"lone"), (_ALERT, b"\x01\x00")]
        )
        assert [batched for _, batched in opened] == [False, False, False]
        assert plane.read_state.batches == []

    def test_failed_batch_yields_none_for_its_whole_run(self):
        payloads = [b"p%d" % i * 64 for i in range(4)]
        wire, read_state = self._sealed_wire(payloads)
        record_length = len(wire) // len(payloads)  # equal-size records
        forged = bytearray(wire)
        forged[2 * record_length - 1] ^= 0x01  # the second record's tag
        plane = RecordPlane()
        plane.read_state = read_state
        plane.feed(bytes(forged))
        walked = list(plane.open_flight(plane.pop_records(), lambda: True))
        assert read_state.batches == [4]
        assert [plaintext for _, plaintext in walked] == [None] * 4
        assert read_state.sequence == 0
        # Per-record replay recovers the valid prefix, then fails.
        assert plane.unprotect(walked[0][0]) == payloads[0]
        with pytest.raises(IntegrityError):
            plane.unprotect(walked[1][0])

    def test_pop_records_returns_views(self):
        plane = RecordPlane()
        plane.feed(_wire(b"a" * 100, b"b" * 200))
        records = plane.pop_records()
        assert all(isinstance(r.payload, memoryview) for r in records)

    def test_unprotect_many_accepts_views(self):
        payloads = [b"p%d" % i * 512 for i in range(6)]
        wire, read_state = self._sealed_wire(payloads)
        plane = RecordPlane()
        plane.read_state = read_state
        plane.feed(wire)
        records = plane.pop_records()
        assert plane.unprotect_many(records) == payloads

    def test_plaintext_passthrough_returns_bytes(self):
        # Before keys, consumers receive bytes even though the parser
        # produced views — downstream code stores payloads past the flight.
        plane = RecordPlane()
        plane.feed(_wire(b"hello", b"world"))
        records = plane.pop_records()
        assert plane.unprotect_many(records) == [b"hello", b"world"]
        assert all(
            isinstance(p, bytes) for p in plane.unprotect_many(records)
        )
        plane.feed(_wire(b"solo"))
        (record,) = plane.pop_records()
        assert plane.unprotect(record) == b"solo"
        assert isinstance(plane.unprotect(record), bytes)
