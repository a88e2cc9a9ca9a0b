"""The experiment CLI (python -m repro)."""

import pytest

from repro.cli import main


class TestCli:
    def test_sgx_command(self, capsys):
        assert main(["sgx"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "Gbps" in out

    def test_viability_subset(self, capsys):
        assert main(["viability", "--sites", "4", "--seed", "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "4/4" in out

    def test_interop_subset(self, capsys):
        assert main(["interop", "--sites", "10", "--seed", "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "legacy interoperability" in out

    def test_fuzz_replay(self, capsys):
        assert main([
            "fuzz", "--replay", "tls",
            "--seed", "fz-0", "--index", "1", "--kind", "bit_flip",
        ]) == 0
        out = capsys.readouterr().out
        assert "kind=bit_flip: ok" in out
        assert "digest:" in out

    def test_fuzz_replay_unknown_implementation_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--replay", "not-a-protocol"])

    def test_fuzz_replay_defaults_index_to_one(self, capsys):
        # ``--index`` is now shared with selftest and defaults to None;
        # the fuzz replay path must keep its historical default of 1.
        assert main([
            "fuzz", "--replay", "tls", "--seed", "fz-0", "--kind", "bit_flip",
        ]) == 0
        assert "kind=bit_flip: ok" in capsys.readouterr().out

    def test_fuzz_smoke_prints_the_pinned_corpus_digest(self, capsys):
        assert main(["fuzz"]) == 0
        out = capsys.readouterr().out
        assert "48/48 cases ok" in out
        # The first 16 hex digits of the digest test_fuzz_conformance pins.
        assert "corpus digest 7dee67e7d228244a" in out

    def test_selftest_quick_scorecard(self, capsys):
        assert main(["selftest", "--quick", "--impl", "tls"]) == 0
        out = capsys.readouterr().out
        assert "zero silent downgrades" in out
        assert "report digest" in out

    def test_metrics_quick(self, capsys):
        assert main(["metrics", "--quick", "--seed", "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "wiretap vs metrics" in out
        assert "MISMATCH" not in out
        assert "all hops agree" in out

    def test_metrics_json_is_schema_versioned(self, capsys):
        import json

        assert main(["metrics", "--quick", "--json", "--seed", "cli-test"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 2
        assert report["scenario"]["established"] is True
        assert len(report["per_hop"]) == 6

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])
