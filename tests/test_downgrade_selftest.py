"""The downgrade gauntlet: seeded adversaries, the selftest scoring
service, and the fallback-accounting plumbing they rely on.

Everything here must be reproducible from ``(seed, case_index)`` alone —
the replay contract ``python -m repro selftest --seed S --index I`` exposes.
"""

import json

import pytest

from repro import obs
from repro.bench.selftest import (
    PROPERTIES,
    baseline_outcome,
    run_case,
    run_selftest,
)
from repro.bench.threats import Scenario
from repro.cli import main
from repro.errors import DecodeError
from repro.netsim.downgrade import (
    ATTACK_DIRECTIONS,
    ATTACK_KINDS,
    DowngradeAdversary,
    DowngradeCase,
    forged_announcement_bytes,
)
from repro.wire.extensions import ExtensionType
from repro.wire.handshake import ClientHello, Handshake, HandshakeBuffer
from repro.wire.mbtls import EncapsulatedRecord
from repro.wire.records import ContentType, Record, RecordBuffer


def _client_hello_record(extensions=(), suites=(0x003C, 0x009C)) -> bytes:
    hello = ClientHello(
        random=bytes(range(32)),
        session_id=b"",
        cipher_suites=tuple(suites),
        extensions=tuple(extensions),
    )
    body = Handshake(
        msg_type=ClientHello.msg_type, body=hello.encode_body()
    ).encode()
    return Record(content_type=ContentType.HANDSHAKE, payload=body).encode()


def _parse_hello(wire: bytes) -> ClientHello:
    buffer = RecordBuffer()
    buffer.feed(wire)
    records = buffer.pop_records()
    assert records[0].content_type == ContentType.HANDSHAKE
    handshakes = HandshakeBuffer()
    handshakes.feed(records[0].payload)
    message = handshakes.pop_messages()[0]
    return ClientHello.decode_body(message.body)


class TestDowngradeAdversary:
    def test_kind_derived_from_case_index(self):
        for index, kind in enumerate(ATTACK_KINDS):
            assert DowngradeAdversary(b"s", index).kind == kind
            assert DowngradeAdversary(b"s", index + len(ATTACK_KINDS)).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DowngradeAdversary(b"s", 0, "melt_the_wire")

    def test_every_kind_has_a_direction(self):
        assert set(ATTACK_DIRECTIONS) == set(ATTACK_KINDS)
        assert set(ATTACK_DIRECTIONS.values()) <= {"c2s", "s2c"}

    def test_strip_support_removes_private_use_extensions(self):
        from repro.wire.extensions import MiddleboxSupportExtension

        wire = _client_hello_record(
            extensions=[MiddleboxSupportExtension().to_extension()]
        )
        adversary = DowngradeAdversary(b"s", 0, "strip_support")
        hello = _parse_hello(adversary.process_chunk(wire))
        assert hello.extensions == ()
        assert adversary.applied and adversary.applied[0].kind == "strip_support"

    def test_strip_support_is_noop_without_the_extension(self):
        wire = _client_hello_record()
        adversary = DowngradeAdversary(b"s", 0, "strip_support")
        assert adversary.process_chunk(wire) == wire
        assert adversary.applied == []

    def test_suite_delete_keeps_one_offered_suite(self):
        wire = _client_hello_record(suites=(0x003C, 0x009C, 0x1301))
        adversary = DowngradeAdversary(b"s", 2, "suite_delete")
        hello = _parse_hello(adversary.process_chunk(wire))
        assert len(hello.cipher_suites) == 1
        assert hello.cipher_suites[0] in (0x003C, 0x009C, 0x1301)

    def test_suite_inject_prepends_a_weak_code(self):
        wire = _client_hello_record()
        adversary = DowngradeAdversary(b"s", 3, "suite_inject")
        hello = _parse_hello(adversary.process_chunk(wire))
        assert hello.cipher_suites[1:] == (0x003C, 0x009C)
        assert hello.cipher_suites[0] not in (0x003C, 0x009C)

    def test_forge_appends_announcement_behind_the_hello(self):
        wire = _client_hello_record()
        adversary = DowngradeAdversary(b"s", 4, "forge_announcement")
        out = adversary.process_chunk(wire)
        buffer = RecordBuffer()
        buffer.feed(out)
        records = buffer.pop_records()
        assert [r.content_type for r in records] == [
            ContentType.HANDSHAKE,
            ContentType.MBTLS_ENCAPSULATED,
        ]
        encap = EncapsulatedRecord.from_record(records[1])
        assert 2 <= encap.subchannel_id <= 9

    def test_replay_injects_byte_identical_prior_announcement(self):
        wire = _client_hello_record()
        adversary = DowngradeAdversary(b"s", 5, "replay_announcement")
        out = adversary.process_chunk(wire)
        assert out == wire + forged_announcement_bytes(1)

    def test_suppress_deletes_announcements_only(self):
        announcement = forged_announcement_bytes(1)
        wire = _client_hello_record()
        adversary = DowngradeAdversary(b"s", 6, "suppress_announcement")
        assert adversary.process_chunk(announcement) is None
        assert adversary.process_chunk(wire) == wire
        assert len(adversary.applied) == 1

    def test_blind_mode_passes_non_tls_streams_verbatim(self):
        adversary = DowngradeAdversary(b"s", 0, "strip_support")
        garbage = b"\xff\xffnot a TLS record at all" * 3
        assert adversary.process_chunk(garbage) == garbage
        # Once blind, even well-formed records pass untouched.
        wire = _client_hello_record()
        assert adversary.process_chunk(wire) == wire
        assert adversary.applied == []

    def test_same_seed_same_attack(self):
        wire = _client_hello_record(suites=(0x003C, 0x009C, 0x1301))
        outputs = set()
        for _ in range(3):
            adversary = DowngradeAdversary(b"det", 2)
            outputs.add(adversary.process_chunk(wire))
        assert len(outputs) == 1

    def test_chunk_boundaries_do_not_change_the_attack(self):
        wire = _client_hello_record(suites=(0x003C, 0x009C, 0x1301))
        whole = DowngradeAdversary(b"det", 2).process_chunk(wire)
        dribble = DowngradeAdversary(b"det", 2)
        parts = [dribble.process_chunk(bytes([b])) or b"" for b in wire]
        assert b"".join(parts) == whole


class TestDelegationTamper:
    """The mdTLS delegation-certificate forgeries (satellite of the
    proxy-signature party): expired warrants, swapped middlebox keys,
    corrupted signatures, and proxy signatures over truncated transcripts
    must all end detected, never silent."""

    def _warrant_hello(self, pki):
        from repro.wire.mdtls import DelegationCertificate, DelegationCertificateExtension

        delegator = pki.credential("client.example")
        mbox = pki.credential("mbox")
        warrant = DelegationCertificate.issue(
            delegator=delegator.certificate.subject,
            delegator_key=delegator.private_key,
            delegator_chain=delegator.encoded_chain(),
            middlebox="mbox",
            middlebox_key=mbox.private_key.public_key,
            not_before=0.0,
            not_after=1000.0,
        )
        extension = DelegationCertificateExtension((warrant,)).to_extension()
        return warrant, _client_hello_record(extensions=[extension])

    def test_every_tamper_variant_breaks_warrant_verification(self, pki):
        """Across seeds the DRBG exercises all three forgeries, and each
        rewritten warrant fails verification at a warrant-checking party."""
        from repro.errors import CertificateError
        from repro.wire.extensions import ExtensionType as ExtType
        from repro.wire.mdtls import DelegationCertificateExtension

        _, wire = self._warrant_hello(pki)
        details = set()
        for index in range(12):
            adversary = DowngradeAdversary(
                b"td-%d" % index, 0, "tamper_delegation"
            )
            out = adversary.process_chunk(wire)
            assert adversary.applied, "tamper never fired"
            details.add(adversary.applied[0].detail.split(" ", 1)[0])
            hello = _parse_hello(out)
            extension = hello.find_extension(ExtType.DELEGATION_CERTIFICATE)
            (forged,) = DelegationCertificateExtension.from_extension(
                extension
            ).warrants
            with pytest.raises(CertificateError):
                forged.verify(
                    pki.trust,
                    now=500.0,
                    middlebox="mbox",
                    middlebox_key=pki.credential("mbox").private_key.public_key,
                )
        assert details == {"shifted", "swapped", "corrupted"}

    def test_tamper_is_noop_without_the_extension(self, pki):
        wire = _client_hello_record()
        adversary = DowngradeAdversary(b"td", 0, "tamper_delegation")
        assert adversary.process_chunk(wire) == wire
        assert adversary.applied == []

    def test_tamper_delegation_detected_on_mdtls_middlebox(self):
        index = ATTACK_KINDS.index("tamper_delegation")
        verdict = run_case("mdtls_middlebox", DowngradeCase(b"st-0", index))
        assert verdict.verdict == "detected", verdict.describe()
        assert verdict.attacks, "the forgery never fired"

    def test_tamper_delegation_vacuous_without_middleboxes(self):
        """A middlebox-free mdTLS hello carries no warrants to forge."""
        index = ATTACK_KINDS.index("tamper_delegation")
        verdict = run_case("mdtls", DowngradeCase(b"st-0", index))
        assert verdict.verdict == "harmless", verdict.describe()
        assert verdict.attacks == ()

    def test_proxy_signature_over_truncated_transcript_rejected(self, pki, rng):
        """A proxy signature by the *warranted* key but over a truncated
        transcript hash must not complete the client's chain verify."""
        from hashlib import sha256

        from repro.baselines.mdtls import MdTLSDeployment
        from repro.wire.handshake import HandshakeType
        from repro.wire.mdtls import ProxySignature

        deployment = MdTLSDeployment(
            rng=rng.fork(b"trunc"),
            trust_store=pki.trust,
            client_credential=pki.credential("client"),
            server_credential=pki.credential("server"),
            middleboxes=[("mbox", pki.credential("mbox"))],
        )
        client = deployment.build_client()
        mbox = deployment.build_middlebox(0)
        server = deployment.build_server()
        mbox_key = pki.credential("mbox").private_key
        truncated = sha256(b"truncated transcript").digest()

        def tamper(data: bytes) -> bytes:
            buffer = RecordBuffer()
            buffer.feed(data)
            out = bytearray()
            for record in buffer.pop_records():
                if record.content_type == ContentType.HANDSHAKE:
                    handshakes = HandshakeBuffer()
                    handshakes.feed(record.payload)
                    messages = handshakes.pop_messages()
                    rebuilt = b""
                    for message in messages:
                        if message.msg_type == HandshakeType.MDTLS_PROXY_SIGNATURE:
                            forged = ProxySignature(
                                middlebox="mbox",
                                direction=1,
                                signature=mbox_key.sign(
                                    ProxySignature.signed_payload(1, truncated)
                                ),
                            )
                            message = Handshake(
                                msg_type=HandshakeType.MDTLS_PROXY_SIGNATURE,
                                body=forged.encode_body(),
                            )
                        rebuilt += message.encode()
                    record = Record(
                        content_type=ContentType.HANDSHAKE,
                        payload=rebuilt,
                        version=record.version,
                    )
                out += record.encode()
            return bytes(out)

        client.start(), mbox.start(), server.start()
        for _ in range(12):
            data = client.data_to_send()
            if data:
                mbox.receive_down(data)
            data = mbox.data_to_send_up()
            if data:
                server.receive_bytes(data)
            data = server.data_to_send()
            if data:
                mbox.receive_up(data)
            data = mbox.data_to_send_down()
            if data:
                client.receive_bytes(tamper(data))
        assert not client.established
        assert client.abort is not None
        assert client.abort.alert == "decrypt_error"


class TestSelftestScoring:
    def test_case_replays_from_seed_and_index_alone(self):
        first = run_case("mbtls", DowngradeCase(b"replay", 0))
        second = run_case("mbtls", DowngradeCase(b"replay", 0))
        assert first == second
        assert first.kind == ATTACK_KINDS[0]

    def test_strip_support_detected_at_server_on_mbtls(self):
        verdict = run_case("mbtls", DowngradeCase(b"st-0", 0))
        assert verdict.verdict == "detected"
        assert verdict.origin == "server"
        assert "decrypt_error" in verdict.detail

    def test_suite_attacks_detected_on_mbtls(self):
        for index in (2, 3):  # suite_delete, suite_inject
            verdict = run_case("mbtls", DowngradeCase(b"st-0", index))
            assert verdict.verdict == "detected", verdict.describe()
            assert verdict.origin == "server"

    def test_forged_announcement_never_joins(self):
        verdict = run_case("mbtls", DowngradeCase(b"st-0", 4))
        assert verdict.verdict == "detected"
        assert "rejected" in verdict.detail

    def test_corrupt_secondary_is_accounted_fallback(self):
        verdict = run_case("mbtls_middlebox", DowngradeCase(b"st-0", 7))
        assert verdict.verdict in ("fallback", "detected"), verdict.describe()

    def test_baseline_round_trips(self):
        base = baseline_outcome("mbtls", b"st-0")
        assert base.established and base.quiesced and not base.aborts
        assert len(base.delivered_right) == 2 and len(base.delivered_left) == 1

    def test_scorecard_has_no_silent_downgrades(self):
        report = run_selftest(
            impls=("mbtls", "mbtls_middlebox"), seeds=(b"st-0",)
        )
        assert report.ok, [v.describe() for v in report.silent_downgrades]
        assert report.silent_downgrades == ()
        for card in report.scorecards:
            assert set(card.properties) == set(PROPERTIES)
            assert card.properties["P6"] == "pass"
            assert card.properties["P7"] == "pass"

    def test_report_is_deterministic(self):
        digests = {
            run_selftest(impls=("mbtls",), seeds=(b"det-0",)).digest()
            for _ in range(2)
        }
        assert len(digests) == 1
        # The quick scorecard over all twelve implementations, pinned across
        # processes: a changed alert description or origin anywhere moves it.
        # ``python -m repro selftest --quick`` prints its first 16 characters.
        assert run_selftest(seeds=(b"st-0",)).digest() == (
            "c87f2c016986cf6c808b8505458c790e0833d4d35a91dbbcd59f6c1c0ddb76da"
        )

    def test_full_report_digest_is_pinned(self):
        """Both seeds over all twelve implementations: every verdict and
        every attacked transcript the gauntlet scores, pinned."""
        assert run_selftest().digest() == (
            "c3f7330c9245c0e4aef0298c7f3921a0987434511f6f90c9aff397e4429ff6ed"
        )

    def test_report_json_is_serializable(self):
        report = run_selftest(impls=("tls",), seeds=(b"st-0",))
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["ok"] is True
        assert payload["scorecards"][0]["impl"] == "tls"
        assert len(payload["scorecards"][0]["cases"]) == len(ATTACK_KINDS)


class TestFallbackAccounting:
    def test_fail_closed_client_refuses_degraded_path(self):
        """allow_fallback=False: a corrupted secondary must kill the
        session with insufficient_security, not quietly shed the box."""
        scenario = Scenario(b"fc-closed")
        adversary = DowngradeAdversary(b"fc-closed", 7, "corrupt_secondary")
        scenario.attack_hop("client", "mbox", adversary, "mbox")
        engine, service, events = scenario.deploy_mbtls(allow_fallback=False)
        assert adversary.applied
        assert not engine.established
        assert engine.fallback_decisions
        assert engine.abort is not None
        assert engine.abort.alert == "insufficient_security"
        assert engine.abort.origin == "client"

    def test_fallback_allowed_is_counted(self):
        """Default policy: the session survives without the middlebox, and
        the decision shows up in the session.fallback counter family."""
        with obs.scoped() as plane:
            scenario = Scenario(b"fc-open")
            adversary = DowngradeAdversary(b"fc-open", 7, "corrupt_secondary")
            scenario.attack_hop("client", "mbox", adversary, "mbox")
            engine, service, events = scenario.deploy_mbtls()
            total = sum(
                value
                for _, value in plane.metrics.iter_counters("session.fallback")
            )
        assert adversary.applied
        assert engine.established
        assert engine.middleboxes == ()
        assert engine.fallback_decisions
        assert total >= 1

    def test_duplicate_support_extension_is_fatal_to_decode(self):
        from repro.wire.codec import Reader
        from repro.wire.extensions import (
            MiddleboxSupportExtension,
            decode_extensions,
            encode_extensions,
        )

        support = MiddleboxSupportExtension().to_extension()
        with pytest.raises(DecodeError):
            decode_extensions(Reader(encode_extensions([support, support])))
        assert support.extension_type == int(ExtensionType.MIDDLEBOX_SUPPORT)


class TestSelftestCli:
    def test_quick_scorecard_single_impl(self, capsys):
        assert main(["selftest", "--quick", "--impl", "mbtls"]) == 0
        out = capsys.readouterr().out
        assert "zero silent downgrades" in out
        assert "P1" in out and "P7" in out
        assert "FAIL" not in out

    def test_replay_one_case(self, capsys):
        assert main([
            "selftest", "--impl", "mbtls", "--seed", "st-0", "--index", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "kind=strip_support: detected" in out
        assert "origin=server" in out

    def test_replay_json(self, capsys):
        assert main([
            "selftest", "--impl", "mbtls", "--seed", "st-0", "--index", "2",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "detected"
        assert payload["kind"] == "suite_delete"

    def test_replay_requires_impl(self):
        with pytest.raises(SystemExit):
            main(["selftest", "--index", "0"])

    def test_unknown_impl_rejected(self):
        with pytest.raises(SystemExit):
            main(["selftest", "--impl", "not-a-protocol"])
