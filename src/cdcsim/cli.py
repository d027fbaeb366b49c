"""Command-line front end: single runs, sweep tables, and golden fixtures.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  Presets are embedded in this module so fixture bytes cannot drift.
Exit codes: 0 success, 2 configuration error, 3 verification failure,
4 unsupported parameter combination.
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
from .engine import UnsupportedCombinationError, dump_json
from .placement import JobSpec, make_placement, placement_to_json
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
            "T_values": list(range(2, 41, 2)), "rho": 2,
        },
    },
    "fig4": {
        "sweep": {
            "kind": "fig4", "K": 10, "N": 2520, "Q": 360, "T": 64, "s": 1,
            "r_values": list(range(1, 10)), "rho": "full-rank",
        },
    },
}


def _fail(exc: Exception) -> int:
    """Print a one-line error and return its exit code: the only place
    exceptions map to exit codes."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_UNSUPPORTED if isinstance(exc, UnsupportedCombinationError) else EXIT_CONFIG


def _fr(x: Fraction | None) -> str | None:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def _merge_config(args: argparse.Namespace) -> dict:
    flags = vars(args)  # each subcommand registers only the flags it reads
    config: dict = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        config = copy.deepcopy(PRESETS[args.preset])
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        engine.expect_json(file_cfg, dict, "config file")
        check_keys("config", "job", file_cfg, dict.fromkeys(CONFIG_KEYS))
        config.update(file_cfg)
    for name in (*JOB_KEYS, "scheme"):
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
JOB_KEYS = ("K", "N", "Q", "r", "s", "T")
CONFIG_KEYS = (*JOB_KEYS, "scheme", "workload", "sweep")


def _build_spec(config: dict) -> JobSpec:
    if missing := [name for name in JOB_KEYS if name not in config]:
        raise ValueError(f"missing job parameters: {', '.join(missing)} "
                         "(provide via flags, --config, or --preset)")
    return JobSpec(**{name: config[name] for name in JOB_KEYS})


# the keys of each workload kind and the JSON types each takes: an int is
# never a bool, and a number is an int or a float
_TEXT, _INT, _NUMBER = ((str,), "a string"), ((int,), "an int"), ((int, float), "a number")
_LIST, _RANK = ((list,), "a list"), ((int, float, str, dict), "a number, a string or an object")
_LINTRANS_KEYS = {"kind": _TEXT, "input": _TEXT, "m": _INT, "n": _INT, "seed": _INT}
WORKLOAD_KEYS = {
    "wordcount": {"kind": _TEXT, "text": _TEXT, "input": _TEXT, "tokenizer": _TEXT},
    "lintrans": _LINTRANS_KEYS,
    "coded-lintrans": _LINTRANS_KEYS,
    "synthetic": {"kind": _TEXT, "seed": _INT, "duplicate_prob": _NUMBER},
}
# the same for each sweep kind, every key but kind, s and rho required; a
# fig3/fig4 spec field may be any number, so JobSpec names one that is no int
_SPEC_NUMBERS = dict.fromkeys(("K", "N", "Q", "s"), _NUMBER)
SWEEP_KEYS = {
    "fig2": {"kind": _TEXT, "K": _INT, "N": _INT, "Q": _INT, "m": _INT, "q": _INT},
    "fig3": {"kind": _TEXT, **_SPEC_NUMBERS, "r": _NUMBER, "T_values": _LIST, "rho": _RANK},
    "fig4": {"kind": _TEXT, **_SPEC_NUMBERS, "T": _NUMBER, "r_values": _LIST, "rho": _RANK},
}


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
            if shaped := [key for key in desc if key in ("m", "n", "seed")]:
                raise ValueError(f"workload {shaped[0]}: not taken with 'input', "
                                 "whose file gives the matrix and the inputs")
            base = lintrans_from_file(desc["input"])
        else:
            m = desc.get("m", spec.Q * spec.T)
            n = desc.get("n", 32)
            for key, value in (("m", m), ("n", n)):
                if value < 0:
                    raise ValueError(f"workload {key}: expected a non-negative int, got {value}")
            base = LinearTransformWorkload.random(m, n, spec.N, desc.get("seed", 0))
        return CodedLinearTransformWorkload(base) if kind == "coded-lintrans" else base
    return SyntheticRankWorkload(seed=desc.get("seed", 0),
                                 duplicate_prob=desc.get("duplicate_prob", 0.0))


def result_to_json(result: engine.RunResult, report: analytics.LoadReport, workload) -> dict:
    """The ``result.json`` document of a run; ``workload`` writes its outputs."""
    doc = {
        "spec": result.spec.as_dict(),
        "scheme": result.scheme,
        "b_k": {str(k): v for k, v in sorted(result.bits_by_node.items())},
        "load_empirical": _fr(report.load_empirical),
        "load_analytic": _fr(report.load_analytic),
        "deviation": _fr(report.deviation),
        "verification": result.verification,
    }
    if report.load_analytic_alt is not None:
        doc["load_analytic_alt"] = _fr(report.load_analytic_alt)
        doc["deviation_alt"] = _fr(report.deviation_alt)
    if report.notes:
        doc["notes"] = report.notes
    if result.rho is not None:
        doc["rho"] = {f"{k}:{ell}": v for (k, ell), v in sorted(result.rho.items())}
        doc["rho_avg"] = {str(ell): _fr(v) for ell, v in sorted(report.rho_by_ell.items())}
    if result.outputs is not None:
        doc["outputs"] = {
            str(k): {str(q): workload.output_text(v, result.spec) for q, v in sorted(out.items())}
            for k, out in sorted(result.outputs.items())
        }
    return doc


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_run(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    spec = _build_spec(config)
    workload = build_workload(config.get("workload", {}), spec)
    result = engine.run(spec, workload, config.get("scheme", "cdc"))

    report = analytics.build_load_report(result)
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "loads.csv"),
        ["scheme", "r", "s", "L_empirical", "L_analytic", "deviation"],
        [[result.scheme, str(spec.r), str(spec.s),
          analytics.fmt12(report.load_empirical),
          analytics.fmt12(report.load_analytic),
          analytics.fmt12(report.deviation)]],
    )
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        fh.write(dump_json(result_to_json(result, report, workload)))

    total = sum(result.bits_by_node.values())
    print(f"scheme={result.scheme} bits={total} load={report.load_empirical} "
          f"verification={result.verification}")
    return EXIT_VERIFY if result.verification == "fail" else EXIT_OK


# kind -> (table from the sweep definition and rank model, CSV header, keys
# echoed to <kind>.meta.json, default rank model or None for no rank model).
# The CSV columns are the leading fields of each row.
SWEEPS = {
    "fig2": (lambda sw, rho: analytics.fig2_table(sw["K"], sw["Q"], sw["N"], sw["m"], sw["q"]),
             ["r", "msg_len_bits", "count_paper", "count_alt"], ("K", "Q", "N", "m", "q"), None),
    "fig3": (lambda sw, rho: analytics.load_vs_t_sweep(sw["K"], sw["Q"], sw["N"], sw["r"],
                                                      sw["T_values"], s=sw.get("s", 1),
                                                      rho_model=rho),
             ["T", "L_cdc", "L_cdc_ld"], ("K", "Q", "N", "r"), 2),
    "fig4": (lambda sw, rho: analytics.tradeoff_sweep(sw["K"], sw["Q"], sw["N"], sw["T"],
                                                     sw["r_values"], s=sw.get("s", 1),
                                                     rho_model=rho),
             ["r", "L_uncoded", "L_cdc", "L_cdc_ld"], ("K", "Q", "N", "T"), "full-rank"),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    sweep = config.get("sweep")
    if not sweep:
        raise ValueError("no sweep definition (use --preset fig2/fig3/fig4 or a config file)")
    kind = engine.expect_json(sweep, dict, "sweep").get("kind")
    if type(kind) is not str or kind not in SWEEPS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    keys = SWEEP_KEYS[kind]
    check_keys("sweep", kind, sweep, keys, [k for k in keys if k not in ("kind", "s", "rho")])
    table, header, meta_keys, default_rho = SWEEPS[kind]
    rho = sweep.get("rho", default_rho)
    meta = {k: sweep[k] for k in meta_keys}
    if default_rho is not None:
        meta["rho_model"] = analytics.rank_label(rho)
    rows = table(sweep, rho)

    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, f"{kind}.csv"), header,
        [[str(cell) if isinstance(cell, int) else analytics.fmt12(cell)
          for cell in astuple(row)[:len(header)]] for row in rows],
    )
    with open(os.path.join(out_dir, f"{kind}.meta.json"), "w", encoding="utf-8") as fh:
        fh.write(dump_json(meta))
    print(f"wrote {kind} table to {out_dir}")
    return EXIT_OK


def fixture_to_json(result: engine.RunResult, workload_desc: dict) -> dict:
    return {
        "workload": workload_desc,
        "transcript": engine.transcript_to_json(result.transcript),
    }


def replay_fixture(doc: dict) -> str:
    """Validate and decode a serialized transcript against its workload;
    returns the verdict: "pass", "fail", or "not-applicable" at s >= 2.

    A transcript that is not, one to one, the broadcasts its scheme sends
    (see ``engine.validate_transcript``) or that does not decode fails rather
    than raising; a document with a field of the wrong type or shape, or a
    broadcast whose meta lacks a field, raises ``ValueError``, and an uncoded
    transcript at s >= 2 ``UnsupportedCombinationError``, as ``run`` does.
    """
    return _replay(doc)[0]


def _replay(doc: dict) -> tuple[str, str]:
    """``replay_fixture``'s verdict and why a replay failed: the message of the
    error that rejected it, or the first node and function with a wrong output."""
    engine.expect_json(doc, dict, "fixture document")
    engine.expect_json(doc.get("workload"), dict, "fixture workload")
    transcript = engine.transcript_from_json(doc.get("transcript"))
    spec = transcript.spec
    workload = build_workload(doc["workload"], spec)
    placement = make_placement(spec)
    store = workload.build_store(spec)
    try:
        outputs, reference, verification = engine.decode_and_verify(
            spec, placement, store, transcript, workload)
    except (IncompleteShuffleError, ValueError) as exc:
        return "fail", str(exc)
    if verification != "fail":
        return verification, ""
    k, q = next((k, q) for k, out in outputs.items() for q, v in out.items() if v != reference[q])
    return "fail", f"node {k}: the reduce output of function {q} differs from the reference"


def cmd_fixture(args: argparse.Namespace) -> int:
    if args.input:
        for name in ("preset", "config", *JOB_KEYS, "workload", "seed", "out_dir"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name.replace('_', '-')}: not taken with --input, which "
                                 "names a fixture to replay; a file-input workload's fixtures "
                                 "are written through --config")
        with open(args.input, "r", encoding="utf-8") as fh:
            verdict, reason = _replay(json.load(fh))
        print(f"fixture {args.input}: {verdict}" + (f": {reason}" if reason else ""))
        return EXIT_VERIFY if verdict == "fail" else EXIT_OK

    config = _merge_config(args)
    spec = _build_spec(config)
    workload_desc = config.get("workload", {})
    workload = build_workload(workload_desc, spec)
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "placement.json"), "w", encoding="utf-8") as fh:
        fh.write(dump_json(placement_to_json(make_placement(spec))))
    verdicts = []
    for scheme in engine.SCHEMES:
        result = engine.run(spec, workload, scheme)
        doc = fixture_to_json(result, workload_desc)
        path = os.path.join(out_dir, f"fixture-{scheme}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc))
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
        **{f"--{name}": dict(type=int) for name in JOB_KEYS},
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
    except (KeyError, ValueError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
