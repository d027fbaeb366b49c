"""Command-line front end: single runs, sweep tables, and golden fixtures.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  Presets are embedded in this module so fixture bytes cannot drift.
Exit codes: 0 success, 2 configuration error or a job that runs out of
memory, 3 verification failure, 4 unsupported parameter combination.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import os
import sys
from dataclasses import astuple
from fractions import Fraction

from . import analytics, engine
from .codec import IncompleteShuffleError
from .engine import UnsupportedCombinationError, write_json
from .placement import SPEC_KEYS, JobSpec, make_placement, placement_to_json
from .workloads import (
    CodedLinearTransformWorkload,
    LinearTransformWorkload,
    SyntheticRankWorkload,
    ingest_text,
    lintrans_from_file,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_UNSUPPORTED = 4

PAPER_WORDCOUNT_TEXT = "1212231 2111121 2312131 3112132 1131414 1141231"

PRESETS: dict[str, dict] = {
    "paper-wordcount": {
        "K": 4, "N": 6, "Q": 4, "r": 2, "s": 1, "T": 6,
        "scheme": "cdc",
        "workload": {"kind": "wordcount", "text": PAPER_WORDCOUNT_TEXT, "tokenizer": "char"},
    },
    "fig2": {
        "sweep": {"kind": "fig2", "K": 16, "Q": 16, "N": 128, "m": 2048, "q": 2},
    },
    "fig3": {
        "sweep": {
            "kind": "fig3", "K": 4, "N": 6, "Q": 4, "r": 2, "s": 1,
            "T_values": list(range(2, 41, 2)),
        },
    },
    "fig4": {
        "sweep": {
            "kind": "fig4", "K": 10, "N": 2520, "Q": 360, "T": 64, "s": 1,
            "r_values": list(range(1, 10)),
        },
    },
}


# the most characters a printed error or replay verdict line holds: a message
# that echoes a large value is cut to this length, its last character "…"
MAX_LINE = 1000


def _line(text: str) -> str:
    """``text`` cut to ``MAX_LINE`` characters."""
    return text if len(text) <= MAX_LINE else text[:MAX_LINE - 1] + "…"


def _fail(exc: Exception) -> int:
    """Print a one-line error and return its exit code: the only place
    exceptions map to exit codes."""
    print(_line(f"error: {exc}"), file=sys.stderr)
    return EXIT_UNSUPPORTED if isinstance(exc, UnsupportedCombinationError) else EXIT_CONFIG


def _fr(x: Fraction | None) -> str | None:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def _read_json(path: str):
    """The JSON document in the file ``path``; one nested too deeply for the
    decoder raises ``ValueError`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _merge_config(args: argparse.Namespace) -> dict:
    flags = vars(args)  # each subcommand registers only the flags it reads
    config: dict = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        config = copy.deepcopy(PRESETS[args.preset])
    if args.config:
        file_cfg = engine.expect_json(_read_json(args.config), dict, "config file")
        check_keys("config", "job", file_cfg, dict.fromkeys(CONFIG_KEYS))
        config.update(file_cfg)
    for name in (*SPEC_KEYS, "scheme"):
        if flags.get(name) is not None:
            config[name] = flags[name]
    for key, name in (("kind", "workload"), ("input", "input"), ("seed", "seed")):
        if flags.get(name) is not None:
            workload = engine.expect_json(config.setdefault("workload", {}), dict, "workload")
            workload[key] = flags[name]
    if flags.get("rho") is not None:
        engine.expect_json(config.setdefault("sweep", {}), dict, "sweep")["rho"] = flags["rho"]
    config["out_dir"] = "." if args.out_dir is None else args.out_dir
    return config


# the keys of a config file: the job spec, its scheme, and what it runs
CONFIG_KEYS = (*SPEC_KEYS, "scheme", "workload", "sweep")


def _build_spec(config: dict) -> JobSpec:
    if missing := [name for name in SPEC_KEYS if name not in config]:
        raise ValueError(f"missing job parameters: {', '.join(missing)} "
                         "(provide via flags, --config, or --preset)")
    return JobSpec(**{name: config[name] for name in SPEC_KEYS})


# the keys of each workload kind and the JSON types each takes: an int is
# never a bool, and a number is an int or a float
_TEXT, _INT, _NUMBER = ((str,), "a string"), ((int,), "an int"), ((int, float), "a number")
_LIST, _RANK = ((list,), "a list"), ((int, float, str, dict), "a number, a string or an object")
_LINTRANS_KEYS = {"kind": _TEXT, "input": _TEXT, "n": _INT, "seed": _INT}
WORKLOAD_KEYS = {
    "wordcount": {"kind": _TEXT, "text": _TEXT, "input": _TEXT, "tokenizer": _TEXT},
    "lintrans": _LINTRANS_KEYS,
    "coded-lintrans": _LINTRANS_KEYS,
    "synthetic": {"kind": _TEXT, "seed": _INT, "duplicate_prob": _NUMBER},
}
# a fig3/fig4 spec field may be any number, so JobSpec names one that is no int
_SPEC_NUMBERS = dict.fromkeys(("K", "N", "Q", "s"), _NUMBER)


def check_keys(what: str, kind: str, desc: dict, keys: dict, required=()) -> None:
    """Refuse a ``kind`` ``what`` (a config, workload or sweep) that lacks a
    key of ``required``, or holds a key ``keys`` does not list or a value of a
    JSON type its key does not take (``None``: any type), with a
    ``ValueError`` naming the field."""
    for key in {**desc, **dict.fromkeys(required)}:  # the given keys first
        if key not in desc:
            raise ValueError(f"{what} {key}: missing from a {kind} {what}")
        if key not in keys:
            raise ValueError(f"{what} {key!r}: not a key of a {kind} {what}, "
                             f"which takes {', '.join(sorted(keys))}")
        if keys[key] and type(desc[key]) not in keys[key][0]:
            raise ValueError(f"{what} {key}: expected {keys[key][1]}, got {desc[key]!r}")


def build_workload(desc: dict, spec: JobSpec):
    """The workload a descriptor names; a kind, key or value type the
    descriptor's kind does not take raises ``ValueError`` naming the field."""
    engine.expect_json(desc, dict, "workload")
    kind = desc.get("kind", "synthetic")
    if type(kind) is not str or kind not in WORKLOAD_KEYS:
        raise ValueError(f"unknown workload kind {kind!r}, expected one of {sorted(WORKLOAD_KEYS)}")
    check_keys("workload", kind, desc, WORKLOAD_KEYS[kind])
    if kind == "wordcount":
        tokenizer = desc.get("tokenizer", "word")
        if "input" in desc:  # an explicit corpus path beats embedded text
            return ingest_text(desc["input"], spec.Q, spec.N, tokenizer=tokenizer)
        if "text" in desc:
            return ingest_text(io.StringIO(desc["text"]), spec.Q, spec.N, tokenizer=tokenizer)
        raise ValueError("wordcount workload needs 'text' or 'input'")
    if kind != "synthetic":
        if "input" in desc:
            if shaped := [key for key in desc if key in ("n", "seed")]:
                raise ValueError(f"workload {shaped[0]}: not taken with 'input', "
                                 "whose file gives the matrix and the inputs")
            base = lintrans_from_file(desc["input"])
        else:
            if (n := desc.get("n", 32)) < 0:
                raise ValueError(f"workload n: expected a non-negative int, got {n}")
            # Q row blocks of T rows: the one matrix height the store accepts
            base = LinearTransformWorkload.random(spec.Q * spec.T, n, spec.N, desc.get("seed", 0))
        return CodedLinearTransformWorkload(base) if kind == "coded-lintrans" else base
    return SyntheticRankWorkload(seed=desc.get("seed", 0),
                                 duplicate_prob=desc.get("duplicate_prob", 0.0))


def result_to_json(result: engine.RunResult, report: analytics.LoadReport, workload) -> dict:
    """The ``result.json`` document of a run; ``workload`` writes its outputs."""
    spec, rho = result.transcript.spec, result.transcript.ranks()
    doc = {
        "spec": spec.as_dict(),
        "scheme": result.transcript.scheme,
        "b_k": {str(k): v for k, v in sorted(result.bits_by_node.items())},
        "load_empirical": _fr(result.load_empirical),
        "load_analytic": _fr(report.load_analytic),
        "deviation": _fr(report.deviation),
        "verification": result.verification,
    }
    if result.mismatch is not None:
        doc["mismatch"] = result.mismatch
    if report.load_analytic_alt is not None:
        doc["load_analytic_alt"] = _fr(report.load_analytic_alt)
        doc["deviation_alt"] = _fr(report.deviation_alt)
    if report.notes:
        doc["notes"] = report.notes
    if rho is not None:
        doc["rho"] = {f"{k}:{ell}": v for (k, ell), v in sorted(rho.items())}
        doc["rho_avg"] = {str(ell): _fr(v) for ell, v in sorted(report.rho_by_ell.items())}
    if result.outputs is not None:
        doc["outputs"] = {
            str(k): {str(q): workload.output_text(v, spec) for q, v in sorted(out.items())}
            for k, out in sorted(result.outputs.items())
        }
    return doc


def _write_json(path: str, doc) -> None:
    """Write ``doc`` to ``path`` as ``engine.dump_json`` renders it, straight
    to the file, never as one string."""
    with open(path, "w", encoding="utf-8") as fh:
        write_json(doc, fh)


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_run(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    spec = _build_spec(config)
    workload = build_workload(config.get("workload", {}), spec)
    scheme = config.get("scheme", "cdc")
    result = engine.run(spec, workload, scheme)

    report = analytics.build_load_report(result)
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "loads.csv"),
        ["scheme", "r", "s", "L_empirical", "L_analytic", "deviation"],
        [[scheme, str(spec.r), str(spec.s),
          analytics.fmt12(result.load_empirical),
          analytics.fmt12(report.load_analytic),
          analytics.fmt12(report.deviation)]],
    )
    _write_json(os.path.join(out_dir, "result.json"), result_to_json(result, report, workload))

    total = sum(result.bits_by_node.values())
    print(_line(f"scheme={scheme} bits={total} load={result.load_empirical} "
                f"verification={result.verification}"
                + ("" if result.mismatch is None else f": {result.mismatch}")))
    return EXIT_VERIFY if result.verification == "fail" else EXIT_OK


# kind -> (the keys of its definition and the JSON types each takes, every key
# but kind, s and rho required; table from the definition and rank model; CSV
# header, one column per row field; default rank model or None for no rank
# model).  Its required keys that are not lists are echoed to <kind>.meta.json.
SWEEPS = {
    "fig2": ({"kind": _TEXT, "K": _INT, "N": _INT, "Q": _INT, "m": _INT, "q": _INT},
             lambda sw, rho: analytics.fig2_table(sw["K"], sw["Q"], sw["N"], sw["m"], sw["q"]),
             ["r", "msg_len_bits", "count_paper", "count_alt"], None),
    "fig3": ({"kind": _TEXT, **_SPEC_NUMBERS, "r": _NUMBER, "T_values": _LIST, "rho": _RANK},
             lambda sw, rho: analytics.load_vs_t_sweep(sw["K"], sw["Q"], sw["N"], sw["r"],
                                                      sw["T_values"], s=sw.get("s", 1),
                                                      rho_model=rho),
             ["T", "L_cdc", "L_cdc_ld"], 2),
    "fig4": ({"kind": _TEXT, **_SPEC_NUMBERS, "T": _NUMBER, "r_values": _LIST, "rho": _RANK},
             lambda sw, rho: analytics.tradeoff_sweep(sw["K"], sw["Q"], sw["N"], sw["T"],
                                                     sw["r_values"], s=sw.get("s", 1),
                                                     rho_model=rho),
             ["r", "L_uncoded", "L_cdc", "L_cdc_ld"], "full-rank"),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    sweep = config.get("sweep")
    if not sweep:
        raise ValueError("no sweep definition (use --preset fig2/fig3/fig4 or a config file)")
    kind = engine.expect_json(sweep, dict, "sweep").get("kind")
    if type(kind) is not str or kind not in SWEEPS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    keys, table, header, default_rho = SWEEPS[kind]
    required = [k for k in keys if k not in ("kind", "s", "rho")]
    check_keys("sweep", kind, sweep, keys, required)
    rho = sweep.get("rho", default_rho)
    meta = {k: sweep[k] for k in required if keys[k] is not _LIST}
    if default_rho is not None:
        meta["rho_model"] = analytics.rank_label(rho)
    rows = table(sweep, rho)

    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, f"{kind}.csv"), header,
        [[str(cell) if isinstance(cell, int) else analytics.fmt12(cell)
          for cell in astuple(row)] for row in rows],
    )
    _write_json(os.path.join(out_dir, f"{kind}.meta.json"), meta)
    print(f"wrote {kind} table to {out_dir}")
    return EXIT_OK


def fixture_to_json(result: engine.RunResult, workload_desc: dict) -> dict:
    """The fixture document of a run for ``dump_json`` to write; its
    broadcasts are ``engine.Rows`` (see ``engine.transcript_to_json``), so
    parse the written text to read or edit it."""
    return {
        "workload": workload_desc,
        "transcript": engine.transcript_to_json(result.transcript),
    }


def replay_fixture(doc: dict) -> str:
    """Validate a serialized transcript and check every decoded value against
    its workload's store; returns "pass", "fail", or "not-applicable" at s >= 2.

    A transcript that is not, one to one, the broadcasts its scheme sends
    (see ``engine.validate_transcript``) or that does not decode fails rather
    than raising; a document with a field of the wrong type or shape, a
    missing field or an unknown one raises ``ValueError``, and an uncoded
    transcript at s >= 2 ``UnsupportedCombinationError``, as ``run`` does.
    """
    return _replay(doc)[0]


def _replay(doc: dict) -> tuple[str, str]:
    """``replay_fixture``'s verdict and why a replay failed: the message of the
    error that rejected it, or ``decode_and_verify``'s first wrong value."""
    engine.expect_json(doc, dict, "fixture document")
    engine.expect_json(doc.get("workload"), dict, "fixture workload")
    transcript = engine.transcript_from_json(doc.get("transcript"))
    if len(doc) != 2:
        raise ValueError("fixture document "
                         + engine.unknown_field(doc, ("workload", "transcript"), "fixture"))
    spec = transcript.spec
    workload = build_workload(doc["workload"], spec)
    placement, store = make_placement(spec), workload.build_store(spec)
    try:
        _, mismatch, verdict = engine.decode_and_verify(placement, store, transcript, workload)
    except (IncompleteShuffleError, ValueError) as exc:
        return "fail", str(exc)
    return verdict, mismatch or ""


def cmd_fixture(args: argparse.Namespace) -> int:
    if args.input:
        for name in ("preset", "config", *SPEC_KEYS, "workload", "seed", "out_dir"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name.replace('_', '-')}: not taken with --input, which "
                                 "names a fixture to replay; a file-input workload's fixtures "
                                 "are written through --config")
        verdict, reason = _replay(_read_json(args.input))
        print(_line(f"fixture {args.input}: {verdict}" + (f": {reason}" if reason else "")))
        return EXIT_VERIFY if verdict == "fail" else EXIT_OK

    config = _merge_config(args)
    spec = _build_spec(config)
    workload_desc = config.get("workload", {})
    workload = build_workload(workload_desc, spec)
    for scheme in engine.SCHEMES:
        engine.check_scheme(scheme, spec)
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    placement, store = make_placement(spec), workload.build_store(spec)
    _write_json(os.path.join(out_dir, "placement.json"), placement_to_json(placement))
    verdicts = []
    for scheme in engine.SCHEMES:
        result = engine.run_on(placement, store, workload, scheme)
        path = os.path.join(out_dir, f"fixture-{scheme}.json")
        _write_json(path, fixture_to_json(result, workload_desc))
        verdicts.append(result.verification)
        print(f"wrote {path} ({result.verification})")
    return EXIT_VERIFY if "fail" in verdicts else EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdcsim",
        description="Deterministic simulator for coded distributed computing shuffles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": dict(help="JSON config file"),
        "--preset": dict(help=f"embedded preset, one of {sorted(PRESETS)}"),
        "--scheme": dict(choices=engine.SCHEMES),
        **{f"--{name}": dict(type=int) for name in SPEC_KEYS},
        "--workload": dict(choices=tuple(WORKLOAD_KEYS)),
        "--input": dict(help="workload input file (or fixture to replay)"),
        "--seed": dict(type=int),
        "--rho": dict(type=int, help="constant rank model for sweeps"),
        "--out-dir": dict(),
    }
    # each subcommand takes only the flags it reads
    for name, fn, names in (
            ("run", cmd_run, flags.keys() - {"--rho"}),
            ("sweep", cmd_sweep, {"--config", "--preset", "--rho", "--out-dir"}),
            ("fixture", cmd_fixture, flags.keys() - {"--rho", "--scheme"})):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            if flag in names:
                p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError, OSError, OverflowError) as exc:
        return _fail(exc)
    except MemoryError:
        pass
    # reported once the handler has let go of the error's frames and what they held
    return _fail(MemoryError("out of memory: the job does not fit in the memory this process "
                             "may use"))


if __name__ == "__main__":
    sys.exit(main())
