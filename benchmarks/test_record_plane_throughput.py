"""Microbenchmark: the coalesced RecordPlane vs the legacy drain path.

Before the sans-IO refactor every engine built one ``bytes`` object per
record (``Record.encode()``), appended it to a list, and joined the list on
every drain — three full copies of each payload (eager fragmentation slice,
encode, join) before the transport saw it. The :class:`repro.io.RecordPlane`
writes records directly into one persistent ``bytearray`` (memoryview
fragmentation, in-place header encode) and pays a single ``bytes()`` copy
per drained flight.

The measurement itself lives in :mod:`repro.bench.record_plane` (shared
with ``python -m repro bench``, the one writer of the committed
``BENCH_record_plane.json``); this test runs it, writes the report to a
temporary directory, and pins the structural win (strictly fewer bytes
copied) plus wire equality of the two paths.
"""

from __future__ import annotations

import json

from conftest import emit

from repro.bench.record_plane import PAYLOAD_BYTES, legacy_drain, plane_drain, run
from repro.io.record_plane import RecordPlane


def test_record_plane_throughput(tmp_path):
    report = run()

    # Wire equality: the coalesced path is a pure representation change.
    payload = bytes(range(256)) * (PAYLOAD_BYTES // 256)
    assert legacy_drain(payload)[0] == plane_drain(RecordPlane(), payload)[0]

    (tmp_path / "BENCH_record_plane.json").write_text(json.dumps(report, indent=2) + "\n")

    legacy = report["legacy"]
    plane = report["record_plane"]
    receive = report["receive"]
    emit(
        "Record plane throughput\n"
        f"  legacy drain : {legacy['records_per_sec']:>12,} rec/s  "
        f"{legacy['bytes_copied']:,} bytes copied\n"
        f"  record plane : {plane['records_per_sec']:>12,} rec/s  "
        f"{plane['bytes_copied']:,} bytes copied\n"
        f"  copy ratio   : {report['bytes_copied_ratio']}\n"
        "Receive path (sealed AES-128-GCM flights)\n"
        f"  legacy parse : {receive['legacy']['records_per_sec']:>12,} rec/s  "
        f"{receive['legacy']['bytes_copied']:,} bytes copied\n"
        f"  zero-copy    : {receive['record_plane']['records_per_sec']:>12,} rec/s  "
        f"{receive['record_plane']['bytes_copied']:,} bytes copied\n"
        f"  copy ratio   : {receive['bytes_copied_ratio']}"
    )

    # The structural claim of the refactor: strictly fewer byte copies,
    # on the send side and now on the receive side too.
    assert plane["bytes_copied"] < legacy["bytes_copied"]
    assert (
        receive["record_plane"]["bytes_copied"]
        < receive["legacy"]["bytes_copied"]
    )
