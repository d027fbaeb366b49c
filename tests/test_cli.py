"""Command-line surface: presets, exit codes, CSV/JSON artifacts, fixtures."""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcsim import analytics, engine
from cdcsim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_VERIFY,
    build_workload,
    fixture_to_json,
    main,
    replay_fixture,
    result_to_json,
)
from cdcsim.placement import JobSpec, make_placement
from corpora import write_corpus

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                    "\u0665\u0666\u0667\u0668\u0669")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _out_dir_below_file(tmp_path):
    (tmp_path / "file").write_text("")
    return ["--preset", "paper-wordcount", "--out-dir", str(tmp_path / "file" / "out")]


def _string_field_in_config(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "K": "4", "N": 6, "Q": 4, "r": 2, "s": 1, "T": 6,
        "workload": {"kind": "synthetic", "seed": 7},
    }))
    return ["--config", str(cfg), "--out-dir", str(tmp_path / "out")]


def _gf2mat_file(text):
    def make_args(tmp_path):
        mats = tmp_path / "mats.txt"
        mats.write_text(text)
        return ["--K", "4", "--N", "6", "--Q", "4", "--r", "2", "--s", "1", "--T", "6",
                "--workload", "lintrans", "--input", str(mats), "--out-dir", str(tmp_path / "out")]
    return make_args


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

    def test_unknown_scheme_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({
            "K": 4, "N": 6, "Q": 4, "r": 2, "s": 1, "T": 6, "scheme": "bogus",
            "workload": {"kind": "synthetic", "seed": 7},
        }))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scheme") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("make_args, message", [
        (_out_dir_below_file, "Not a directory"),
        (_string_field_in_config, "K='4' must be an int"),
        (_gf2mat_file("gf2mat A 3 4\n1\n2\n"), "section 'A'"),  # declares 3 rows, holds 2
        # a negative row count once left the reader on the same line forever
        (_gf2mat_file("gf2mat X 1 4\n3\n\ngf2mat A -1 4\n1\n"),
         "section 'A' at line 4 declares a negative size"),
        (_gf2mat_file("gf2mat X 1 4\n3\n\ngf2mat A 1 -4\n1\n"),
         "section 'A' at line 4 declares a negative size"),
        # a later section of the same name must not replace the first
        (_gf2mat_file("gf2mat A 1 4\n1\n\ngf2mat A 1 4\n2\n"),
         "section 'A' at line 4 repeats the name of an earlier section"),
        # int(_, 16) alone would read "1_0" as 0x10 and "0x3" as 3
        (_gf2mat_file("gf2mat X 1 4\n3\ngf2mat A 2 4\n1\n1_0\n"),
         "section 'A' at line 5: row '1_0' is not hex digits"),
        (_gf2mat_file("gf2mat A 1 4\n0x3\n"), "section 'A' at line 2: row '0x3' is not hex digits"),
        (_gf2mat_file("gf2mat A 1 4\n-3\n"), "section 'A' at line 2: row '-3' is not hex digits"),
        (_gf2mat_file("gf2mat A 2 4\nf\n1f\n"),
         "section 'A' at line 3: row 1f is wider than 4 columns"),
        (_gf2mat_file("gf2mat A x 4\n"), "section 'A' at line 1: counts 'x' and '4' are not ints"),
    ], ids=["out-dir-below-file", "string-K", "truncated-gf2mat", "negative-rows-gf2mat",
            "negative-cols-gf2mat", "repeated-section-gf2mat", "underscore-row-gf2mat",
            "0x-row-gf2mat", "minus-row-gf2mat", "wide-row-gf2mat", "non-int-count-gf2mat"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, make_args, message):
        code = main(["run", *make_args(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("workload, message", [
        ({"kind": "synthetic", "duplicate_prob": "0.5"}, "workload duplicate_prob: expected a number"),
        ({"kind": "lintrans", "m": "24"}, "workload m: expected an int"),
        ({"kind": "wordcount", "text": 5}, "workload text: expected a string"),
        ({"kind": "synthetic", "seed": "1"}, "workload seed: expected an int"),
        ({"kind": "synthetic", "seed": True}, "workload seed: expected an int"),
        ({"kind": "synthetic", "seed": 1.5}, "workload seed: expected an int"),
        ({"kind": "synthetic", "duplicate_porb": 0.5}, "'duplicate_porb': not a key"),
        ({"kind": "wordcount", "text": "a b", "seed": 1}, "'seed': not a key"),
        ({"kind": ["synthetic"]}, "unknown workload kind"),
        ([], "workload: expected an object"),
        # named by field, not by what getrandbits or the block-size check would say
        ({"kind": "lintrans", "n": -1}, "workload n: expected a non-negative int, got -1"),
        ({"kind": "coded-lintrans", "m": -5}, "workload m: expected a non-negative int, got -5"),
        # the input file gives the matrix and the inputs; nothing else may shape them
        ({"kind": "lintrans", "input": "m.txt", "m": -5, "seed": 9},
         "workload m: not taken with 'input'"),
        ({"kind": "lintrans", "input": "m.txt", "n": 4}, "workload n: not taken with 'input'"),
        ({"kind": "coded-lintrans", "seed": 9, "input": "m.txt"},
         "workload seed: not taken with 'input'"),
    ], ids=["duplicate_prob-str", "m-str", "text-int", "seed-str", "seed-bool", "seed-float",
            "unknown-key", "key-of-another-kind", "kind-list", "workload-list", "n-negative",
            "m-negative", "input-with-m", "input-with-n", "coded-input-with-seed"])
    def test_bad_workload_descriptor_exits_2(self, tmp_path, capsys, workload, message):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"K": 4, "N": 6, "Q": 4, "r": 2, "s": 1, "T": 6,
                                   "workload": workload}))
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "fixture"])
    @pytest.mark.parametrize("top, flags, message", [
        ([1, 2], [], "config file: expected an object, got list"),
        ("job", [], "config file: expected an object, got str"),
        ({"workload": [1]}, ["--seed", "1"], "workload: expected an object, got list"),
        # once ran cdc: a misspelt key is named, not dropped
        ({"K": 4, "N": 6, "Q": 4, "r": 2, "s": 1, "T": 8, "schem": "uncoded"}, [],
         "config 'schem': not a key of a job config, which takes K, N, Q, T, r, s, scheme, "
         "sweep, workload"),
        ({"sweep": {"kind": "fig2"}, "out_dir": "x"}, [],
         "config 'out_dir': not a key of a job config, which takes K, N, Q, T, r, s, scheme, "
         "sweep, workload"),
    ], ids=["list", "string", "workload-list-with-seed-flag", "unknown-key", "out_dir-key"])
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, command, top, flags, message):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(top))
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg), *flags, "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("scheme", ["uncoded", "cdc", "cdc-ld"])
    def test_lintrans_file_matches_seed_descriptor(self, tmp_path, scheme):
        # the frozen lintrans spec of TestArtifactDigests, its matrices read from a file
        job = ["--K", "6", "--N", "40", "--Q", "12", "--r", "3", "--s", "1", "--T", "8",
               "--scheme", scheme, "--workload", "lintrans"]
        w = build_workload({"kind": "lintrans", "seed": 4}, JobSpec(6, 40, 12, 3, 1, 8))
        mats = tmp_path / "mats.txt"
        mats.write_text("".join(f"gf2mat {name} {m.nrows} {m.ncols}\n" + "".join(
            f"{row:x}\n" for row in m.rows) for name, m in (("A", w.matrix), ("X", w.inputs))))
        seeded, from_file = tmp_path / "seeded", tmp_path / "file"
        assert main(["run", *job, "--seed", "4", "--out-dir", str(seeded)]) == EXIT_OK
        assert main(["run", *job, "--input", str(mats), "--out-dir", str(from_file)]) == EXIT_OK
        text = (from_file / "result.json").read_text()
        assert text == (seeded / "result.json").read_text()
        assert '"1": "320:' in text  # each output is N*T = 320 bits

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


class TestFlags:
    """Each subcommand takes only the flags it reads; argparse refuses the rest."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--preset", "fig4", "--K", "5"],
        ["sweep", "--preset", "fig4", "--seed", "3"],
        ["sweep", "--preset", "fig4", "--scheme", "uncoded"],
    ], ids=["K", "seed", "scheme"])
    def test_sweep_refuses_job_flags(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "fig4.csv").exists()

    def test_run_refuses_rho(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "paper-wordcount", "--rho", "7", "--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --rho 7" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--scheme", "uncoded"], ["--rho", "3"]],
                             ids=["scheme", "rho"])
    def test_fixture_refuses_scheme_and_rho(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["fixture", "--preset", "paper-wordcount", *flags, "--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


FIG2 = {"kind": "fig2", "K": 16, "Q": 16, "N": 128, "m": 2048, "q": 2}
FIG3 = {"kind": "fig3", "K": 4, "N": 6, "Q": 4, "r": 2, "s": 1, "T_values": [2, 4]}
FIG4 = {"kind": "fig4", "K": 10, "N": 2520, "Q": 360, "T": 64, "s": 1, "r_values": [3]}
RANK_TYPES = "a number, a string or an object"
BOTH = ("config", "config-and-rho")


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

    @pytest.mark.parametrize("kind, extra, digest", [
        ("fig2", [], "3ec3e7bdeb07166deb7a12762ec6430323e4e9cc233e825f1504c075e7b15b72"),
        ("fig3", [], "7ace636782509922e6c5e8d535f49179e6e00e16315ed47040a6d1e3ff3fb1db"),
        ("fig4", [], "8f65bcbf8621156467173c4c812f29b665c7b4ab7ccbabe7dff006772bf53892"),
        ("fig3", ["--rho", "5"],
         "6d809aaa3daac43300caa2fe4ac7266402d97de9c6112dc7e11814bf2ff850ce"),
    ], ids=["fig2", "fig3", "fig4", "fig3-rho5"])
    def test_artifacts_frozen(self, tmp_path, kind, extra, digest):
        assert main(["sweep", "--preset", kind, *extra, "--out-dir", str(tmp_path)]) == EXIT_OK
        data = (tmp_path / f"{kind}.csv").read_bytes() + (tmp_path / f"{kind}.meta.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_rank_map_from_json(self, tmp_path, capsys):
        sweep = {"kind": "fig4", "K": 10, "N": 2520, "Q": 360, "T": 64, "s": 1,
                 "r_values": [3], "rho": {"4": 50}}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"sweep": sweep}))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        [row] = read_csv(tmp_path / "fig4.csv")
        assert row["L_cdc_ld"] == analytics.fmt12(
            analytics.l_cdc_ld(3, 1, 10, 360, 2520, 64, {4: 50}))
        assert json.loads((tmp_path / "fig4.meta.json").read_text())["rho_model"] == "measured"

        # a map that leaves out a group size is a config error, not a zero load
        cfg.write_text(json.dumps({"sweep": sweep | {"rho": {"5": 50}}}))
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: rank map")

    @pytest.mark.parametrize("sweep, message", [
        ({"kind": "fig4", "K": 10.0}, "K=10.0 must be an int"),
        ({"kind": "fig4", "Q": 361}, "Q=361 must be divisible"),
        ({"kind": "fig4", "r_values": [1, 2, 11]}, "r=11 must lie in 1..K=10"),
        ({"kind": "fig3", "K": 4, "N": 7, "Q": 4, "r": 2, "T_values": [2, 4]},
         "N=7 must be divisible by C(K,r)=C(4,2)=6"),
        ({"kind": "fig4", "r_values": [1, "3"]}, "r_values entry '3' must be an int"),
        ({"kind": "fig3", "K": 4, "N": 6, "Q": 4, "r": 2, "T_values": [2, "4"]},
         "T_values entry '4' must be an int"),
    ], ids=["fig4-float-K", "fig4-Q", "fig4-r-above-K", "fig3-N", "fig4-mixed-r", "fig3-mixed-T"])
    def test_spec_error_exits_2(self, tmp_path, capsys, sweep, message):
        base = {"kind": "fig4", "K": 10, "N": 2520, "Q": 360, "T": 64, "r_values": [1, 2, 3]}
        # a fig3 case is whole: fig4's T and r_values are not keys of a fig3 sweep
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"sweep": sweep if sweep["kind"] == "fig3" else base | sweep}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("sweep, label", [
        (FIG3, "constant:2"), (FIG4 | {"rho": {"4": 3}}, "measured"), (FIG4, "full-rank"),
    ], ids=["fig3-default", "fig4-map", "fig4-default"])
    def test_empty_sweep_writes_the_model_label(self, tmp_path, sweep, label):
        # the label depends on the rank model alone, not on whether a row exists
        cfg, kind = tmp_path / "sweep.json", sweep["kind"]
        key = "T_values" if kind == "fig3" else "r_values"
        for values, out in ((sweep[key], "rows"), ([], "empty")):
            cfg.write_text(json.dumps({"sweep": sweep | {key: values}}))
            assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / out)]) == EXIT_OK
            meta = json.loads((tmp_path / out / f"{kind}.meta.json").read_text())
            assert meta["rho_model"] == label
        assert read_csv(tmp_path / "rows" / f"{kind}.csv")
        assert read_csv(tmp_path / "empty" / f"{kind}.csv") == []

    def test_sweep_without_definition(self, tmp_path):
        assert main(["sweep", "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("sweep, flags, message", [
        pytest.param(sweep, {"config": [], "config-and-rho": ["--rho", "2"]}[variant], message,
                     id=f"{variant}-{case}")
        for case, sweep, message, variants in [
            ("list", [1], "sweep: expected an object, got list", BOTH),
            ("string", "fig4", "sweep: expected an object, got str", BOTH),
            ("int", 7, "sweep: expected an object, got int", BOTH),
            ("kind-list", {"kind": ["fig4"]}, "unknown sweep kind ['fig4']", BOTH),
            # each case below once ended in a traceback, printed a bare key or
            # ran; --rho replaces a sweep's rank model, so a bad model, and a
            # fig2 sweep that lacks a key, are tried without it
            ("fig2-float-m", FIG2 | {"m": 2048.0}, "sweep m: expected an int, got 2048.0", BOTH),
            ("fig2-float-q", FIG2 | {"q": 2.0}, "sweep q: expected an int, got 2.0", BOTH),
            ("fig2-float-K", FIG2 | {"K": 16.5}, "sweep K: expected an int, got 16.5", BOTH),
            ("fig2-str-m", FIG2 | {"m": "2048"}, "sweep m: expected an int, got '2048'", BOTH),
            ("fig2-no-m", {k: v for k, v in FIG2.items() if k != "m"},
             "sweep m: missing from a fig2 sweep", ("config",)),
            ("fig2-rho", FIG2 | {"rho": 2},
             "sweep 'rho': not a key of a fig2 sweep, which takes K, N, Q, kind, m, q", BOTH),
            *[(f"{kind}-rho-{name}", base | {"rho": rho}, message, ("config",))
              for kind, base in (("fig3", FIG3), ("fig4", FIG4))
              for name, rho, message in (
                  ("null", None, f"sweep rho: expected {RANK_TYPES}, got None"),
                  ("list", [2], f"sweep rho: expected {RANK_TYPES}, got [2]"),
                  ("bool", True, f"sweep rho: expected {RANK_TYPES}, got True"),
                  ("map-null", {"4": None}, "rank model {'4': None}: None is not a number; "
                   "a model is a number, 'full-rank' or a map from group size to a number"))],
            ("fig4-int-r_values", FIG4 | {"r_values": 3},
             "sweep r_values: expected a list, got 3", BOTH),
            ("fig4-unknown-key", FIG4 | {"typo": 3}, "sweep 'typo': not a key of a fig4 sweep, "
             "which takes K, N, Q, T, kind, r_values, rho, s", BOTH),
        ]
        for variant in variants])
    def test_malformed_sweep_exits_2(self, tmp_path, capsys, sweep, message, flags):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"sweep": sweep}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), *flags, "--out-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


DELETE = object()  # marks a field the test removes instead of setting


def _append_copy(broadcasts):
    broadcasts.append(copy.deepcopy(broadcasts[0]))


def _prepend_conflict(broadcasts):
    # a copy of broadcast 0 with the lowest payload bit flipped, placed first
    # so that the genuine copy comes last
    dup = copy.deepcopy(broadcasts[0])
    dup["payloads"][0]["hex"] = f"{int(dup['payloads'][0]['hex'], 16) ^ 1:x}"
    broadcasts.insert(0, dup)


def _repeated_basis_row(broadcasts):
    # basis row 0 again as a third row: rho 3 where the rows have rank 2, and
    # every coefficient row widened to 3 bits with the same value
    b = broadcasts[0]
    rho = b["meta"]["rho"]
    basis, coeffs = b["payloads"][:rho], b["payloads"][rho:]
    b["meta"]["rho"] = rho + 1
    b["payloads"] = basis + [dict(basis[0])] + [dict(c, bits=rho + 1) for c in coeffs]


def _extra_coeff_row(broadcasts):
    broadcasts[0]["payloads"].append({"bits": broadcasts[0]["meta"]["rho"], "hex": "1"})


def _all_sent_by_4(broadcasts):
    # node 4 did not map every file it would then be sending values of
    for b in broadcasts:
        b["sender"] = 4


def _resent_by_outsider(broadcasts):
    # broadcast 0 goes to group [1, 2, 3]; node 4 is not in it
    dup = copy.deepcopy(broadcasts[0])
    dup["sender"] = 4
    broadcasts.append(dup)


def _resent_to_group(group):
    # a copy of broadcast 0, whose sender is node 1, addressed to another group
    def tamper(broadcasts):
        dup = copy.deepcopy(broadcasts[0])
        dup["meta"]["group"] = group
        broadcasts.append(dup)
    return tamper


def _extra_uncoded(q):
    # node 1 mapped file 1 and reduces function 1, so no reducer lacks (1, 1);
    # there is no function 999
    def tamper(broadcasts):
        broadcasts.append({"sender": 1, "kind": "uncoded", "meta": {"q": q, "n": 1},
                           "payloads": [{"bits": 6, "hex": "1"}]})
    return tamper


def _s2_fixture(kw, scheme):
    spec = JobSpec(**kw)
    desc = {"kind": "synthetic", "seed": 2}
    return fixture_to_json(engine.run(spec, build_workload(desc, spec), scheme), desc)


def _relabel_component(broadcasts):
    # the first component-2 broadcast claims component 1 of its group
    next(b for b in broadcasts if b["meta"]["component"] == 2)["meta"]["component"] = 1


class TestFixture:
    def test_generate_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fixture", "--preset", "paper-wordcount", "--out-dir", str(a)]) == EXIT_OK
        assert main(["fixture", "--preset", "paper-wordcount", "--out-dir", str(b)]) == EXIT_OK
        for scheme in ("uncoded", "cdc", "cdc-ld"):
            fa = (a / f"fixture-{scheme}.json").read_bytes()
            fb = (b / f"fixture-{scheme}.json").read_bytes()
            assert fa == fb

    @pytest.mark.parametrize("flags, named", [
        (["--input", "FIXTURE", "--K", "5", "--seed", "3", "--out-dir", "/nonexistent"], "--K"),
        # the write form with a corpus: --input names a fixture, so the job
        # flags are refused before the corpus is read as one
        (["--K", "4", "--N", "6", "--Q", "4", "--r", "2", "--s", "1", "--T", "8",
          "--workload", "wordcount", "--input", "CORPUS"], "--K"),
        (["--input", "FIXTURE", "--preset", "paper-wordcount"], "--preset"),
        (["--config", "job.json", "--input", "FIXTURE"], "--config"),
        (["--input", "FIXTURE", "--workload", "synthetic"], "--workload"),
        (["--input", "FIXTURE", "--seed", "3"], "--seed"),
        (["--input", "FIXTURE", "--out-dir", "OUT"], "--out-dir"),
    ], ids=["K-seed-out-dir", "write-form-with-corpus", "preset", "config", "workload", "seed",
            "out-dir"])
    def test_replay_refuses_job_flags(self, tmp_path, capsys, flags, named):
        fixtures, corpus = tmp_path / "fx", tmp_path / "corpus.txt"
        assert main(["fixture", "--preset", "paper-wordcount", "--out-dir", str(fixtures)]) == EXIT_OK
        corpus.write_text("a b a c\n", encoding="utf-8")
        paths = {"FIXTURE": str(fixtures / "fixture-cdc.json"), "CORPUS": str(corpus),
                 "OUT": str(tmp_path / "out")}
        capsys.readouterr()
        assert main(["fixture", *[paths.get(flag, flag) for flag in flags]]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {named}: not taken with --input, which names a fixture "
                                "to replay; a file-input workload's fixtures are written "
                                "through --config\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "fx"]

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

    @pytest.mark.parametrize("tamper, reason", [
        (lambda bs: bs[0]["payloads"][0].update(hex="2"),  # was "3": one bit flipped
         "node 2: the reduce output of function 2 differs from the reference"),
        (lambda bs: bs.extend([copy.deepcopy(bs[0]), copy.deepcopy(bs[0])]),
         "broadcast 12: second broadcast for (1, (1, 2, 3), 1)"),
    ], ids=["flipped-bit", "broadcast-0-appended-twice"])
    def test_failed_replay_prints_reason(self, tmp_path, capsys, tamper, reason):
        doc = json.loads((FIXTURE_DIR / "paper-wordcount-fixture-cdc.json").read_text())
        assert doc["transcript"]["broadcasts"][0]["payloads"][0]["hex"] == "3"
        tamper(doc["transcript"]["broadcasts"])
        assert replay_fixture(doc) == "fail"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["fixture", "--input", str(path)]) == EXIT_VERIFY
        assert capsys.readouterr().out == f"fixture {path}: fail: {reason}\n"

    @pytest.mark.parametrize("tamper, reason", [
        (_append_copy, "broadcast 12: second broadcast for (1, 4)"),
        (_prepend_conflict, "broadcast 1: second broadcast for (1, 4)"),
    ], ids=["uncoded-dup", "uncoded-conflict"])
    def test_repeated_uncoded_value_prints_reason(self, tmp_path, capsys, tamper, reason):
        # the second broadcast of a value is rejected, whichever payload came first
        doc = json.loads((FIXTURE_DIR / "paper-wordcount-fixture-uncoded.json").read_text())
        broadcasts = doc["transcript"]["broadcasts"]
        assert len(broadcasts) == 12 and broadcasts[0]["meta"] == {"q": 1, "n": 4}
        tamper(broadcasts)
        assert replay_fixture(doc) == "fail"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["fixture", "--input", str(path)]) == EXIT_VERIFY
        assert capsys.readouterr().out == f"fixture {path}: fail: {reason}\n"

    @pytest.mark.parametrize("scheme, tamper", [
        ("cdc-ld", lambda bs: bs[0]["meta"].update(rho=bs[0]["meta"]["rho"] + 1)),
        ("cdc", lambda bs: bs[0]["payloads"][0].update(bits=bs[0]["payloads"][0]["bits"] + 1)),
        *[(scheme, _append_copy) for scheme in ("uncoded", "cdc", "cdc-ld")],
        *[(scheme, _prepend_conflict) for scheme in ("uncoded", "cdc", "cdc-ld")],
        ("cdc-ld", _extra_coeff_row),
        ("cdc-ld", _repeated_basis_row),
        ("uncoded", _all_sent_by_4),
        ("uncoded", lambda bs: bs[0].update(sender=99)),
        ("cdc", _resent_by_outsider),
        ("uncoded", lambda bs: bs[0].update(kind="bogus")),
        ("cdc", lambda bs: bs[0].update(kind="bogus")),
        ("cdc-ld", lambda bs: bs[0].update(kind="cdc")),
        ("cdc", lambda bs: bs[0]["meta"].update(component=7)),
        ("cdc", _resent_to_group([1, 2, 99])),
        ("cdc", _resent_to_group([3, 2, 1])),
        ("uncoded", lambda bs: bs[0].update(payloads=[])),
        ("cdc", lambda bs: bs[0].update(payloads=[])),
        ("cdc", lambda bs: bs[0]["payloads"].append(bs[0]["payloads"][0])),
        ("uncoded", lambda bs: bs[0]["payloads"].append(bs[0]["payloads"][0])),
        ("cdc-ld", lambda bs: bs[0]["meta"].update(ell=2 ** 62)),
        ("uncoded", lambda bs: bs[0]["payloads"][0].update(bits=3)),
        ("uncoded", lambda bs: bs[0]["payloads"][0].update(bits=600)),
        ("uncoded", _extra_uncoded(1)),
        ("uncoded", _extra_uncoded(999)),
    ], ids=["cdc-ld-rho", "cdc-bits", "uncoded-dup", "cdc-dup", "cdc-ld-dup",
            "uncoded-conflict", "cdc-conflict", "cdc-ld-conflict", "cdc-ld-extra-row",
            "cdc-ld-dependent-row", "uncoded-sender-4", "uncoded-sender-99", "cdc-outsider", "uncoded-kind",
            "cdc-kind", "cdc-ld-kind", "cdc-component", "cdc-group-99", "cdc-group-reversed",
            "uncoded-no-payload", "cdc-no-payload", "cdc-two-payloads", "uncoded-two-payloads",
            "cdc-ld-ell-huge",
            "uncoded-bits-3", "uncoded-bits-600", "uncoded-extra-unneeded-1-1",
            "uncoded-extra-q-999"])
    def test_undecodable_field_fails_replay(self, tmp_path, scheme, tamper):
        doc = json.loads((FIXTURE_DIR / f"paper-wordcount-fixture-{scheme}.json").read_text())
        tamper(doc["transcript"]["broadcasts"])
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_VERIFY

    @pytest.mark.parametrize("scheme, field_path, value, message", [
        ("uncoded", ("meta", "q"), DELETE, "meta has no 'q'"),
        ("cdc", ("meta", "group"), DELETE, "meta has no 'group'"),
        ("uncoded", ("sender",), DELETE, "has no 'sender'"),
        ("cdc", ("kind",), DELETE, "has no 'kind'"),
        ("cdc-ld", ("meta",), DELETE, "has no 'meta'"),
        ("uncoded", ("payloads",), DELETE, "has no 'payloads'"),
        ("cdc", ("meta", "component"), "1", "meta component '1' is not an int"),
        ("cdc", ("meta", "component"), 1.0, "meta component 1.0 is not an int"),
        ("cdc-ld", ("meta", "ell"), "3", "meta ell '3' is not an int"),
        ("cdc-ld", ("meta", "rho"), "2", "meta rho '2' is not an int"),
        ("uncoded", ("meta", "n"), True, "meta n True is not an int"),
        ("uncoded", ("sender",), "1", "sender '1' is not an int"),
        ("cdc", ("meta",), [], "meta [] is not an object"),
        ("uncoded", ("payloads",), {}, "payloads {} is not a list"),
        ("cdc", ("payloads", 0, "bits"), "6",
         "payload {'bits': '6', 'hex': '3'} is not an object with an int 'bits' and a str 'hex'"),
        ("cdc", ("payloads", 0, "hex"), 5,
         "payload {'bits': 3, 'hex': 5} is not an object with an int 'bits' and a str 'hex'"),
        ("uncoded", ("payloads", 0), 5,
         "payload 5 is not an object with an int 'bits' and a str 'hex'"),
        ("cdc", ("payloads", 0, "hex"), "zz", "invalid literal for int() with base 16: 'zz'"),
        ("uncoded", ("meta", "extra"), 1, "meta 'extra' is not one of the uncoded meta fields q, n"),
        ("cdc", ("meta", "extra"), 1,
         "meta 'extra' is not one of the cdc meta fields group, component"),
        ("cdc-ld", ("meta", "n"), 1,
         "meta 'n' is not one of the cdc-ld meta fields ell, rho, msg_len"),
    ], ids=["uncoded-q", "cdc-group", "uncoded-sender", "cdc-kind", "cdc-ld-meta",
            "uncoded-payloads", "cdc-component-str", "cdc-component-float", "cdc-ld-ell-str",
            "cdc-ld-rho-str", "uncoded-n-bool", "uncoded-sender-str", "cdc-meta-list",
            "uncoded-payloads-object", "cdc-bits-str", "cdc-hex-int", "uncoded-payload-int",
            "cdc-hex-not-hex", "uncoded-meta-extra", "cdc-meta-extra", "cdc-ld-meta-n"])
    def test_missing_meta_field_names_broadcast(self, tmp_path, capsys, scheme, field_path,
                                                value, message):
        doc = json.loads((FIXTURE_DIR / f"paper-wordcount-fixture-{scheme}.json").read_text())
        *parents, last = field_path
        node = doc["transcript"]["broadcasts"][0]
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: broadcast 0: {message}\n"

    @pytest.mark.parametrize("edit", [
        lambda h: "0x" + h, lambda h: f" {h} ", lambda h: "0_" + h, lambda h: "0" + h,
        str.upper, lambda h: "+" + h, lambda h: h.translate(ARABIC_INDIC_DIGITS),
    ], ids=["0x", "spaces", "underscore", "leading-zero", "uppercase", "plus", "arabic-indic"])
    def test_non_canonical_hex_names_broadcast(self, tmp_path, capsys, edit):
        # int(_, 16) reads each edited string as the same value; 10-bit
        # segments put letters in the hex, so str.upper has something to change
        spec = JobSpec(K=5, N=10, Q=5, r=3, s=1, T=30)
        desc = {"kind": "synthetic", "seed": 3}
        doc = fixture_to_json(engine.run(spec, build_workload(desc, spec), "cdc"), desc)
        i, payload = next((i, p) for i, b in enumerate(doc["transcript"]["broadcasts"])
                          for p in b["payloads"] if edit(p["hex"]) != p["hex"])
        canonical = payload["hex"]
        payload["hex"] = edit(canonical)
        assert int(payload["hex"], 16) == int(canonical, 16)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"error: broadcast {i}: payload hex {payload['hex']!r} "
                                           f"is not written as {canonical!r}\n")

    @pytest.mark.parametrize("scheme, grow", [("cdc", 1), ("cdc", 8), ("cdc-ld", 1)],
                             ids=["cdc-bits+1", "cdc-bits+8", "cdc-ld-msg_len+1"])
    def test_r1_wrong_length_fails_replay(self, tmp_path, scheme, grow):
        # at r=1 a receiver rebuilds no segment of the sender's, so only the
        # group's segment width can tell a payload of the wrong length
        spec = JobSpec(K=5, N=10, Q=10, r=1, s=1, T=8)
        desc = {"kind": "synthetic", "seed": 5}
        doc = fixture_to_json(engine.run(spec, build_workload(desc, spec), scheme), desc)
        b = doc["transcript"]["broadcasts"][0]
        if scheme == "cdc":
            b["payloads"][0]["bits"] += grow
        else:
            b["meta"]["msg_len"] += grow
            for row in b["payloads"][:b["meta"]["rho"]]:
                row["bits"] += grow
        assert replay_fixture(doc) == "fail"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_VERIFY

    @pytest.mark.parametrize("scheme", ["cdc", "cdc-ld"])
    def test_padding_bit_fails_replay(self, tmp_path, capsys, scheme):
        # one 5-bit value split in two 3-bit segments: bit 2 of node 3's
        # segment is the zero padding of the symbol nodes 1 and 2 recover
        spec = JobSpec(K=3, N=3, Q=3, r=2, s=1, T=5)
        desc = {"kind": "synthetic", "seed": 2}
        doc = fixture_to_json(engine.run(spec, build_workload(desc, spec), scheme), desc)
        b = doc["transcript"]["broadcasts"][2]
        assert b["sender"] == 3 and b["payloads"][0] == {"bits": 3, "hex": "2"}
        b["payloads"][0]["hex"] = "6"
        assert replay_fixture(doc) == "fail"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_VERIFY
        assert capsys.readouterr().out.endswith(
            ": fail: node 1: the padding of group (1, 2, 3)'s symbol is not zero\n")

    @pytest.mark.parametrize("scheme", ["cdc", "cdc-ld"])
    def test_every_payload_bit_flip_fails_replay_at_word_width(self, tmp_path, scheme):
        # one 8-bit value split in three 3-bit segments leaves one padding
        # bit; at T=8 the recovered symbol unpacks through struct, which
        # raises OverflowError if the padding check let a set bit through
        spec = JobSpec(K=4, N=4, Q=4, r=3, s=1, T=8)
        desc = {"kind": "synthetic", "seed": 2}
        honest = fixture_to_json(engine.run(spec, build_workload(desc, spec), scheme), desc)
        path = tmp_path / "tampered.json"
        flips = 0
        for i, b in enumerate(honest["transcript"]["broadcasts"]):
            for j, payload in enumerate(b["payloads"]):
                for bit in range(payload["bits"]):
                    doc = copy.deepcopy(honest)
                    edited = doc["transcript"]["broadcasts"][i]["payloads"][j]
                    edited["hex"] = f"{int(edited['hex'], 16) ^ 1 << bit:x}"
                    assert replay_fixture(doc) == "fail", (i, j, bit)
                    path.write_text(json.dumps(doc))
                    assert main(["fixture", "--input", str(path)]) == EXIT_VERIFY, (i, j, bit)
                    flips += 1
        assert flips >= 12  # four senders, at least one 3-bit row each

    S2_SPECS = [dict(K=4, N=6, Q=6, r=2, s=2, T=8), dict(K=5, N=10, Q=10, r=2, s=2, T=7)]

    @pytest.mark.parametrize("kw", S2_SPECS, ids=["K4-T8", "K5-T7"])
    @pytest.mark.parametrize("scheme", ["cdc", "cdc-ld"])
    def test_s2_honest_replay_not_applicable(self, tmp_path, capsys, kw, scheme):
        doc = _s2_fixture(kw, scheme)
        assert replay_fixture(doc) == "not-applicable"
        path = tmp_path / "honest.json"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.endswith(": not-applicable\n")

    @pytest.mark.parametrize("kw", S2_SPECS, ids=["K4-T8", "K5-T7"])
    @pytest.mark.parametrize("scheme, tamper", [
        (scheme, tamper) for scheme in ("cdc", "cdc-ld") for tamper in (
            lambda bs: bs[0]["payloads"][0].update(bits=bs[0]["payloads"][0]["bits"] + 1),
            _append_copy,
            lambda bs: bs.pop(),
        )] + [("cdc", _relabel_component)],
        ids=["cdc-widened", "cdc-repeated", "cdc-dropped", "cdc-ld-widened", "cdc-ld-repeated",
             "cdc-ld-dropped", "cdc-component-relabelled"])
    def test_s2_tampered_replay_fails(self, tmp_path, kw, scheme, tamper):
        doc = _s2_fixture(kw, scheme)
        tamper(doc["transcript"]["broadcasts"])
        assert replay_fixture(doc) == "fail"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_VERIFY

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["transcript"]["broadcasts"].__setitem__(0, 5) or d, "broadcast 0"),
        (lambda d: d["transcript"]["spec"].update(Z=1) or d, "transcript spec"),
        (lambda d: d["transcript"]["spec"].pop("T") and d, "transcript spec"),
        (lambda d: d["transcript"].update(spec=list(d["transcript"]["spec"].values())) or d,
         "transcript spec"),
        (lambda d: d.update(transcript=[d["transcript"]]) or d, "transcript"),
        (lambda d: [d], "fixture document"),
        (lambda d: d["transcript"].update(broadcasts=7) or d, "transcript broadcasts"),
        (lambda d: d.update(workload=3) or d, "fixture workload"),
        (lambda d: d["transcript"].update(scheme="bogus") or d,
         "transcript scheme 'bogus': expected one of uncoded, cdc, cdc-ld\n"),
    ], ids=["broadcast-int", "spec-extra-key", "spec-no-T", "spec-list", "transcript-list",
            "document-list", "broadcasts-int", "workload-int", "scheme-bogus"])
    def test_malformed_document_exits_2(self, tmp_path, capsys, edit, field):
        doc = json.loads((FIXTURE_DIR / "paper-wordcount-fixture-cdc-ld.json").read_text())
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(edit(doc)))
        assert main(["fixture", "--input", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_flags_define_the_job(self, tmp_path):
        assert main(["fixture", "--K", "5", "--N", "10", "--Q", "5", "--r", "3", "--s", "1",
                     "--T", "9", "--out-dir", str(tmp_path)]) == EXIT_OK
        for scheme in engine.SCHEMES:
            doc = json.loads((tmp_path / f"fixture-{scheme}.json").read_text())
            assert doc["transcript"]["spec"]["K"] == 5
            assert replay_fixture(doc) == "pass"

    def test_no_job_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fixture", "--out-dir", str(out)]) == EXIT_CONFIG
        assert "missing job parameters" in capsys.readouterr().err
        assert not out.exists()

    def test_multi_copy_exits_4(self, tmp_path, capsys):
        code = main(["fixture", "--K", "4", "--N", "6", "--Q", "6", "--r", "2", "--s", "2",
                     "--T", "8", "--workload", "synthetic", "--out-dir", str(tmp_path)])
        assert code == EXIT_UNSUPPORTED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_uncoded_multi_copy_replay_exits_4(self, tmp_path, capsys):
        # no run writes an uncoded transcript at s=2, so build one by hand:
        # each value a reducer of q lacks, sent once by a node that mapped it
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        desc = {"kind": "synthetic", "seed": 1}
        placement = make_placement(spec)
        store = build_workload(desc, spec).build_store(spec)
        broadcasts = [
            {"sender": placement.batch_of_file[n][0], "kind": "uncoded", "meta": {"q": q, "n": n},
             "payloads": [{"bits": 8, "hex": f"{store[q, n]:x}"}]}
            for batch, qs in placement.reduce_batches.items() for q in qs for n in range(1, 7)
            if not all(n in placement.node_files[j] for j in batch)]
        doc = {"workload": desc, "transcript": {"scheme": "uncoded", "spec": spec.as_dict(),
                                                "broadcasts": broadcasts}}
        with pytest.raises(engine.UnsupportedCombinationError):
            replay_fixture(doc)
        path = tmp_path / "uncoded-s2.json"
        path.write_text(json.dumps(doc))
        assert main(["fixture", "--input", str(path)]) == EXIT_UNSUPPORTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: uncoded shuffle is defined only for s=1, got s=2\n"


GOLDEN = {scheme: json.loads((FIXTURE_DIR / f"paper-wordcount-fixture-{scheme}.json").read_text())
          for scheme in engine.SCHEMES}
# the fuzz pool: the golden fixtures plus one s = 2 transcript, which has no decoder
FUZZ_POOL = GOLDEN | {"cdc-ld-s2": _s2_fixture(dict(K=4, N=6, Q=6, r=2, s=2, T=8), "cdc-ld")}


def total_bits(doc: dict) -> int:
    return sum(engine.transcript_from_json(doc["transcript"]).bits_by_node().values())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=4,
)


class TestReplayFuzz:
    """One random edit inside one broadcast of a pool transcript: replay gives
    a verdict or raises ``ValueError`` (exit 2), and nothing else escapes.  The
    verdict is "fail", or "pass" at s = 1 and "not-applicable" at s >= 2, and a
    transcript that does not fail carries as many bits as the untouched one."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_single_edit_ends_cleanly(self, data):
        name = data.draw(st.sampled_from(sorted(FUZZ_POOL)), label="transcript")
        doc = copy.deepcopy(FUZZ_POOL[name])
        broadcasts = doc["transcript"]["broadcasts"]
        node = broadcasts[data.draw(st.integers(0, len(broadcasts) - 1), label="broadcast")]
        while True:  # walk down to the field to edit
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                            else range(len(node))), label="key")
            child = node[key]
            if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
                break
            node = child
        if data.draw(st.booleans(), label="delete"):
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES, label="value")
        try:
            verdict = replay_fixture(doc)
        except ValueError:
            return
        s = FUZZ_POOL[name]["transcript"]["spec"]["s"]
        assert verdict in ("fail", "pass" if s == 1 else "not-applicable")
        if verdict != "fail":
            assert total_bits(doc) == total_bits(FUZZ_POOL[name])


DICKENS = ("it was the best of times it was the worst of times it was the age of wisdom "
           "it was the age of foolishness it was the epoch of belief it was the epoch of "
           "incredulity it was the season of light it was the season of darkness")


class TestArtifactDigests:
    """Frozen s=1 artifacts beyond the K=4 golden fixtures: result.json plus
    fixture JSON for every scheme, on a spec with duplicate values, one with
    a parity-coded store, two with two files per batch at r=3 (a word count
    from embedded text and a plain linear transform), and one at r=1, where
    each value set is one whole segment."""

    SPECS = {
        "wordcount": (dict(K=5, N=20, Q=10, r=3, s=1, T=8),
                      {"kind": "wordcount", "text": DICKENS}),
        "lintrans": (dict(K=6, N=40, Q=12, r=3, s=1, T=8), {"kind": "lintrans", "seed": 4}),
        "synthetic": (dict(K=6, N=30, Q=30, r=2, s=1, T=13),
                      {"kind": "synthetic", "seed": 3, "duplicate_prob": 0.5}),
        "coded-lintrans": (dict(K=5, N=10, Q=5, r=3, s=1, T=9),
                           {"kind": "coded-lintrans", "seed": 2}),
        "wordcount-file": (dict(K=5, N=20, Q=10, r=3, s=1, T=8),
                           {"kind": "wordcount", "input": "corpus.txt"}),
        "r1": (dict(K=5, N=10, Q=10, r=1, s=1, T=8), {"kind": "synthetic", "seed": 5}),
    }

    @pytest.mark.parametrize("case, scheme, digest", [
        ("synthetic", "uncoded",
         "dd21a093c7863863dd53c61d341bfa311fcb8cbedd0e90685a66732194d015b2"),
        ("synthetic", "cdc",
         "e0094af9fcbad94f537e8f27791541d7e564af20ba2e66bac09b51162dd77a52"),
        ("synthetic", "cdc-ld",
         "a6beb6c414a8e54d3f058c9581476acc5ed9d48a469972fb0a6e5463729a96b9"),
        ("coded-lintrans", "uncoded",
         "d5e474dc566ed693b4cac0ea0720869b2aa66da510e1fc5f6bfa599e96694ca5"),
        ("coded-lintrans", "cdc",
         "c07d4e67d24a517723eda45b2684ac552cafaf5056ed3461c1a1cc4f98988403"),
        ("coded-lintrans", "cdc-ld",
         "d195433ff472bed7fab85bf30aaaf39a99225ef08682d6e9e6099344c1677172"),
        ("wordcount", "uncoded",
         "4dd39644455e9fef4e9b0525c3e8827b76ee2608e0ae14179cd27c4deef3ae8d"),
        ("wordcount", "cdc",
         "63b8151384add8c024c5c4622acc5b4d3b7a1e76993dc0c5da73003904512ace"),
        ("wordcount", "cdc-ld",
         "1972322f722ac3a7a00e2738d05615fe384be019dfbdd554d3039214d8a3c519"),
        ("lintrans", "uncoded",
         "37c14ba2a17a83df87509c933d56a81bb49380888b86aa27c1199e27705fc092"),
        ("lintrans", "cdc",
         "7e5facc8e02ef1358826588bf91a59ac69812c76e0da33effe4f1b8581509464"),
        ("lintrans", "cdc-ld",
         "20b65d62ba902523eb78b825754d7faec38a33d5884901a822b0d4e294f307d1"),
        ("wordcount-file", "uncoded",
         "9fed32575ebe1b36c7f813aaac43928d7956e327da370eced81873634101958f"),
        ("wordcount-file", "cdc",
         "b4984c59e26dd8354c024879643024aabd74cbde57f42469f6f1dd92ca371c80"),
        ("wordcount-file", "cdc-ld",
         "331c1d7847f63bd602cc235bbdc52b968e9006ca470675bfd007dc044a755e28"),
        ("r1", "uncoded",
         "9eab591037b87e2cb5dca4e8afb5c06a4dcc706de69459f2f54f23ffe24bc808"),
        ("r1", "cdc",
         "7448dd66a35fae15b37aa4d9da8323b8363ff42b438e3437e5cdcf61084c2ac6"),
        ("r1", "cdc-ld",
         "186c4a497b76e98ecf00a48444c21a082d8b28dca6cb67180358e275e4833e58"),
    ], ids=[f"{case}-{scheme}"
            for case in ("synthetic", "coded-lintrans", "wordcount", "lintrans", "wordcount-file",
                         "r1")
            for scheme in ("uncoded", "cdc", "cdc-ld")])
    def test_result_and_fixture_frozen(self, tmp_path, monkeypatch, case, scheme, digest):
        # the fixture records the corpus path, so it is relative to a fixed name
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "corpus.txt", seed=5, tokens=4000, vocab=300)
        kw, desc = self.SPECS[case]
        spec = JobSpec(**kw)
        workload = build_workload(desc, spec)
        result = engine.run(spec, workload, scheme)
        fixture = fixture_to_json(result, desc)
        text = (engine.dump_json(result_to_json(result, analytics.build_load_report(result),
                                                workload))
                + engine.dump_json(fixture))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert replay_fixture(fixture) == "pass"


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
    import os
    import subprocess
    import sys

    import cdcsim
    # the child imports the same package the tests run against, installed or not
    src = str(pathlib.Path(cdcsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "cdcsim.cli", "run",
                           "--preset", "paper-wordcount", "--out-dir", "/tmp/cdcsim-smoke"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "verification=pass" in proc.stdout
