"""Command-line surface: presets, exit codes, CSV/JSON artifacts, fixtures."""

from __future__ import annotations

import csv
import json
import pathlib
from fractions import Fraction

import pytest

from cdcsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNSUPPORTED, EXIT_VERIFY, main

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_paper_preset_cdc_ld_t30(self, tmp_path):
        code = main(["run", "--preset", "paper-wordcount", "--scheme", "cdc-ld",
                     "--T", "30", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["b_k"]["1"] == 36
        assert doc["verification"] == "pass"
        assert doc["load_empirical"] == "7/40"
        rows = read_csv(tmp_path / "loads.csv")
        assert rows[0]["scheme"] == "cdc-ld"
        assert float(rows[0]["deviation"]) == 0.0

    def test_paper_preset_cdc_t30(self, tmp_path):
        code = main(["run", "--preset", "paper-wordcount", "--scheme", "cdc",
                     "--T", "30", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["b_k"] == {"1": 45, "2": 45, "3": 45, "4": 45}

    def test_full_replication_zero_bits(self, tmp_path):
        code = main(["run", "--preset", "paper-wordcount", "--r", "4",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "result.json").read_text())
        assert all(v == 0 for v in doc["b_k"].values())

    def test_bad_divisibility_exits_2(self, tmp_path, capsys):
        code = main(["run", "--K", "4", "--N", "7", "--Q", "4", "--r", "2", "--s", "1",
                     "--T", "6", "--workload", "synthetic", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "C(K,r)" in capsys.readouterr().err

    def test_missing_parameters_exit_2(self, tmp_path, capsys):
        code = main(["run", "--K", "4", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "missing job parameters" in capsys.readouterr().err

    def test_uncoded_multi_copy_exits_4(self, tmp_path):
        code = main(["run", "--K", "4", "--N", "6", "--Q", "6", "--r", "2", "--s", "2",
                     "--T", "8", "--workload", "synthetic", "--scheme", "uncoded",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_UNSUPPORTED

    def test_s2_accounting_run_exits_0(self, tmp_path):
        code = main(["run", "--K", "4", "--N", "6", "--Q", "6", "--r", "2", "--s", "2",
                     "--T", "8", "--workload", "synthetic", "--scheme", "cdc-ld",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["verification"] == "not-applicable"
        assert "load_analytic_alt" in doc and "notes" in doc

    def test_unknown_preset(self, tmp_path, capsys):
        code = main(["run", "--preset", "nope", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_wordcount_from_corpus_file(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("1212231 2111121 2312131 3112132 1131414 1141231", encoding="utf-8")
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({
            "K": 4, "N": 6, "Q": 4, "r": 2, "s": 1, "T": 30, "scheme": "cdc-ld",
            "workload": {"kind": "wordcount", "tokenizer": "char"},
        }))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--input", str(corpus),
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "result.json").read_text())
        assert doc["b_k"]["1"] == 36  # same run as the embedded-text preset

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({
            "K": 4, "N": 6, "Q": 4, "r": 2, "s": 1, "T": 6,
            "scheme": "cdc",
            "workload": {"kind": "synthetic", "seed": 7},
        }))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--T", "12", "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "result.json").read_text())
        assert doc["spec"]["T"] == 12  # flag wins over file


class TestSweep:
    def test_fig4(self, tmp_path):
        from cdcsim.analytics import fmt12
        assert main(["sweep", "--preset", "fig4", "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "fig4.csv")
        assert len(rows) == 9
        for row in rows:
            r = int(row["r"])
            assert row["L_uncoded"] == fmt12(Fraction(10 - r, 10))
            assert row["L_cdc"] == fmt12(Fraction(10 - r, 10 * r))
        meta = json.loads((tmp_path / "fig4.meta.json").read_text())
        assert meta["rho_model"] == "full-rank"

    def test_fig3_crossover_row(self, tmp_path):
        assert main(["sweep", "--preset", "fig3", "--rho", "2",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = {int(row["T"]): row for row in read_csv(tmp_path / "fig3.csv")}
        assert float(rows[12]["L_cdc_ld"]) == 0.25
        assert float(rows[12]["L_cdc"]) == 0.25
        assert float(rows[30]["L_cdc_ld"]) < 0.25

    def test_fig2_relation(self, tmp_path):
        assert main(["sweep", "--preset", "fig2", "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "fig2.csv")
        assert len(rows) == 15
        for row in rows:
            r = int(row["r"])
            holds = float(row["msg_len_bits"]) < float(row["count_paper"])
            assert holds == (2 <= r <= 14)

    def test_sweep_without_definition(self, tmp_path):
        assert main(["sweep", "--out-dir", str(tmp_path)]) == EXIT_CONFIG


class TestFixture:
    def test_generate_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fixture", "--preset", "paper-wordcount", "--out-dir", str(a)]) == EXIT_OK
        assert main(["fixture", "--preset", "paper-wordcount", "--out-dir", str(b)]) == EXIT_OK
        for scheme in ("uncoded", "cdc", "cdc-ld"):
            fa = (a / f"fixture-{scheme}.json").read_bytes()
            fb = (b / f"fixture-{scheme}.json").read_bytes()
            assert fa == fb

    def test_replay_passes(self, tmp_path):
        assert main(["fixture", "--preset", "paper-wordcount", "--out-dir", str(tmp_path)]) == EXIT_OK
        for scheme in ("uncoded", "cdc", "cdc-ld"):
            path = tmp_path / f"fixture-{scheme}.json"
            assert main(["fixture", "--input", str(path)]) == EXIT_OK

    def test_fixture_includes_placement(self, tmp_path):
        assert main(["fixture", "--preset", "paper-wordcount", "--out-dir", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "placement.json").read_text())
        assert {"nodes": [1, 2], "files": [1]} in doc["file_batches"]

    def test_corrupted_payload_fails_replay(self, tmp_path):
        assert main(["fixture", "--preset", "paper-wordcount", "--out-dir", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "fixture-cdc.json"
        doc = json.loads(path.read_text())
        target = None
        for b in doc["transcript"]["broadcasts"]:
            if b["payloads"][0]["hex"] != "0":
                target = b
                break
        value = int(target["payloads"][0]["hex"], 16) ^ 1  # flip one bit
        target["payloads"][0]["hex"] = f"{value:x}"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_VERIFY

    @pytest.mark.parametrize("scheme, tamper", [
        ("cdc-ld", lambda b: b["meta"].update(rho=b["meta"]["rho"] + 1)),
        ("cdc", lambda b: b["payloads"][0].update(bits=b["payloads"][0]["bits"] + 1)),
    ], ids=["cdc-ld-rho", "cdc-bits"])
    def test_undecodable_field_fails_replay(self, tmp_path, scheme, tamper):
        doc = json.loads((FIXTURE_DIR / f"paper-wordcount-fixture-{scheme}.json").read_text())
        tamper(doc["transcript"]["broadcasts"][0])
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_VERIFY

    def test_multi_copy_exits_4(self, tmp_path, capsys):
        code = main(["fixture", "--K", "4", "--N", "6", "--Q", "6", "--r", "2", "--s", "2",
                     "--T", "8", "--workload", "synthetic", "--out-dir", str(tmp_path)])
        assert code == EXIT_UNSUPPORTED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDeterminism:
    def test_run_twice_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--preset", "paper-wordcount", "--scheme", "cdc-ld",
                         "--T", "30", "--out-dir", str(out)]) == EXIT_OK
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
        assert (a / "loads.csv").read_bytes() == (b / "loads.csv").read_bytes()

    def test_sweep_twice_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sweep", "--preset", "fig4", "--out-dir", str(out)]) == EXIT_OK
        assert (a / "fig4.csv").read_bytes() == (b / "fig4.csv").read_bytes()


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "cdcsim.cli", "run",
                           "--preset", "paper-wordcount", "--out-dir", "/tmp/cdcsim-smoke"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verification=pass" in proc.stdout
