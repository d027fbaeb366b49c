"""cdcsim benchmark: verified job time, fixture write and replay, and memory.

    python3 perfbench/run.py --workload paper-fig4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each scheme of the workload gets a worker
process of its own (see worker.py); the parent drives them in a closed loop,
one operation at a time, in rounds of one job, write and replay per scheme,
until another round would end after ``--seconds``.  Every operation is
checked; the last line printed is one JSON object with the metrics.  Times
are means corrected to a reference host speed (see clock.py); NOTES.md says
what each workload and metric is for.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans wrapped around the package's public functions.  Exit
codes: 0 all outputs correct, 1 some output wrong (the result is still
printed), 2 the benchmark could not run (nothing printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import cases
from clock import calibration_loop, corrected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import cdcsim, cdcsim.cli; "
                "print(time.perf_counter() - t0)")
OPS = ("job", "write", "replay")
END_TO_END_PREFIX = {"job": "job_s", "write": "fixture_write_s", "replay": "replay_s"}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


# --- per-layer metric table ---------------------------------------------------
# (metric, op the value is taken from, source, span or counter, unit); every
# metric is reported per scheme as "<metric>.<scheme>".

def _span_metrics(scheme: str) -> list[tuple[str, str, str, str, str]]:
    shuffle = f"engine.run_{scheme.replace('-', '_')}_shuffle"
    rows = [
        ("cli.build_workload.s", "job", "self", "cli.build_workload", "s"),
        ("workloads.ingest_text.s", "job", "self", "workloads.ingest_text", "s"),
        ("workloads.build_store.s", "job", "self", "workloads.build_store", "s"),
        ("placement.make_placement.s", "job", "self", "placement.make_placement", "s"),
        (f"{shuffle}.s", "job", "self", shuffle, "s"),
        ("engine.broadcasts", "job", "counter", "engine.broadcasts", "count"),
        ("engine.decode_and_verify.s", "job", "self", "engine.decode_and_verify", "s"),
        ("engine.reduce_phase.s", "job", "self", "engine.reduce_phase", "s"),
        ("analytics.build_load_report.s", "job", "self", "analytics.build_load_report", "s"),
        ("engine.transcript_to_json.s", "write", "self", "engine.transcript_to_json", "s"),
        ("engine.dump_json.s", "write", "self", "engine.dump_json", "s"),
        ("engine.fixture_bytes", "write", "counter", "engine.fixture_bytes", "bytes"),
        ("engine.transcript_from_json.s", "replay", "self", "engine.transcript_from_json", "s"),
        ("cli.replay_fixture.s", "replay", "self", "cli.replay_fixture", "s"),
    ]
    rows += [(f"{phase}.peak_mb", "job", "peak", phase, "MB")
             for phase in ("placement", "map", "shuffle", "decode_and_verify")]
    rows += [("write.peak_mb", "write", "peak", "write", "MB"),
             ("replay.peak_mb", "replay", "peak", "replay", "MB")]
    if scheme == "uncoded":
        return rows
    rows += [
        ("codec.build_vset.calls", "job", "calls", "codec.build_vset", "count"),
        ("codec.build_vset.s", "job", "self", "codec.build_vset", "s"),
        ("codec.build_vset.distinct_ratio", "job", "counter",
         "codec.build_vset.distinct_ratio", "ratio"),
        ("codec.encode_cdc.s", "job", "self", "codec.encode_cdc", "s"),
        ("codec.segment_usymbol.calls", "job", "calls", "codec.segment_usymbol", "count"),
        ("codec.segment_usymbol.s", "job", "self", "codec.segment_usymbol", "s"),
        ("codec.decode_cdc_s1.s", "job", "self", "codec.decode_cdc_s1", "s"),
        ("gf2.Gf2ExtField.mul.calls", "job", "calls", "gf2.Gf2ExtField.mul", "count"),
        ("gf2.Gf2ExtField.mul.s", "job", "self", "gf2.Gf2ExtField.mul", "s"),
        ("codec.multicast_coverage.s", "job", "self", "codec.multicast_coverage", "s"),
    ]
    if scheme == "cdc":
        return rows
    return rows + [
        ("codec.ld_compress.s", "job", "self", "codec.ld_compress", "s"),
        ("codec.ld_decompress.s", "job", "self", "codec.ld_decompress", "s"),
        ("gf2.rank_and_basis.s", "job", "self", "gf2.rank_and_basis", "s"),
        ("gf2.rank_and_basis.rows", "job", "counter", "gf2.rank_and_basis.rows", "count"),
        ("gf2.rank_and_basis.rank", "job", "counter", "gf2.rank_and_basis.rank", "count"),
        ("gf2.reconstruct.s", "job", "self", "gf2.reconstruct", "s"),
    ]


def end_to_end_names() -> list[str]:
    names = ["setup_s"]
    for op in OPS:
        names += [f"{END_TO_END_PREFIX[op]}.{scheme}" for scheme in cases.SCHEMES]
    return names + [f"peak_rss_mb.{scheme}" for scheme in cases.SCHEMES]


def per_layer_names() -> list[str]:
    names = [f"{row[0]}.{scheme}" for scheme in cases.SCHEMES for row in _span_metrics(scheme)]
    names += [f"trace.overhead_ratio.{scheme}" for scheme in cases.SCHEMES]
    return names + ["trace.absent_spans"]


# --- processes ------------------------------------------------------------------

def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to import the package in fresh interpreters, and the mean of
    a calibration loop run before and after each.

    The first import writes the bytecode cache and is not counted; the rest
    read it, as an installed CLI does, whatever PYTHONDONTWRITEBYTECODE says.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    imports, calibration = [], []
    for i in range(SETUP_SAMPLES + 1):
        before = calibration_loop()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing cdcsim failed: {proc.stderr.strip()[-500:]}")
        if i:
            imports.append(float(proc.stdout))
            calibration.append((before + calibration_loop()) / 2)
    return imports, calibration


class WorkerProcess:
    def __init__(self, scheme: str, config: dict):
        self.scheme = scheme
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, command: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # reported below, from the exit code
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.scheme} worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, reply: dict) -> dict:
        self.attempted += reply["attempted"]
        self.failed += reply["failed"]
        for err in reply["errors"]:
            if len(self.errors) < 10:
                self.errors.append(err)
                print(f"FAILED {err}", file=sys.stderr)
        return reply


# --- the two kinds of run -------------------------------------------------------

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(raw: list[float]) -> str:
    """Sample count and raw range printed beside a corrected mean."""
    if not raw:
        return "n=0"
    return (f"n={len(raw)} raw: median={_median(raw):.6g} "
            f"min={min(raw):.6g} max={max(raw):.6g}")


def _rounds(seconds: float):
    """Yield round numbers while another round of the mean length so far
    still ends within ``seconds``; there is always at least one."""
    start = time.perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return


def timed_run(workers: dict, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Rounds of every scheme until the time is up.  Returns the metrics
    and a note on the samples behind each."""
    samples = {(op, scheme): ([], []) for op in OPS for scheme in workers}
    for _ in _rounds(seconds):
        for scheme, worker in workers.items():
            reply = tally.add(worker.ask({"cmd": "round"}))
            for op in OPS:
                if op in reply:
                    samples[(op, scheme)][0].append(reply[op])
                    samples[(op, scheme)][1].append(reply[f"{op}_cal"])
    metrics, notes = {}, {}
    for (op, scheme), (raw, calibration) in samples.items():
        name = f"{END_TO_END_PREFIX[op]}.{scheme}"
        metrics[name] = (corrected(raw, calibration), "s")
        notes[name] = _spread(raw)
    for scheme, worker in workers.items():
        metrics[f"peak_rss_mb.{scheme}"] = (worker.ask({"cmd": "rss"})["rss_mb"], "MB")
        notes[f"peak_rss_mb.{scheme}"] = "ru_maxrss of the worker"
    return metrics, notes


def _layer_value(rounds: list[dict], op: str, source: str, key: str) -> float:
    values = []
    for rnd in rounds:
        rec = rnd["ops"].get(op)
        if rec is None:
            values.append(0.0)
        elif source == "counter":
            values.append(rec["counters"].get(key, 0))
        elif source == "peak":
            values.append(rec["peaks"].get(key, 0.0))
        else:
            calls, _total, self_s = rec["spans"].get(key, (0, 0.0, 0.0))
            values.append(calls if source == "calls" else self_s)
    return _median(values)


def traced_run(workers: dict, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds for half the time, then one
    round with tracemalloc for the phase peaks, which is slow."""
    plain = {scheme: [] for scheme in workers}
    traced = {scheme: [] for scheme in workers}
    for _ in _rounds(seconds / 2):
        for scheme, worker in workers.items():
            reply = tally.add(worker.ask({"cmd": "round"}))
            if "job" in reply:
                plain[scheme].append(reply["job"])
            traced[scheme].append(tally.add(worker.ask({"cmd": "round", "trace": "time"})))
    metrics, notes = {}, {}
    absent: set[str] = set()
    for scheme, worker in workers.items():
        memory = [tally.add(worker.ask({"cmd": "round", "trace": "memory"}))]
        for rnd in traced[scheme] + memory:
            absent.update(rnd["absent"])
        for name, op, source, key, unit in _span_metrics(scheme):
            rounds = memory if source == "peak" else traced[scheme]
            metrics[f"{name}.{scheme}"] = (_layer_value(rounds, op, source, key), unit)
            notes[f"{name}.{scheme}"] = f"n={len(rounds)}"
        traced_jobs = [r["ops"]["job"]["seconds"] for r in traced[scheme] if "job" in r["ops"]]
        # the first untraced job of a process pays one-off costs; skip it
        plain_jobs = plain[scheme][1:] or plain[scheme]
        ratio = (statistics.fmean(traced_jobs) / statistics.fmean(plain_jobs)
                 if traced_jobs and plain_jobs else 0.0)
        metrics[f"trace.overhead_ratio.{scheme}"] = (ratio, "ratio")
        notes[f"trace.overhead_ratio.{scheme}"] = f"n={len(traced[scheme])}"
    metrics["trace.absent_spans"] = (len(absent), "count")
    notes["trace.absent_spans"] = ""
    for name in sorted(absent):
        print(f"absent span {name}: the function no longer exists; its metrics read 0")
    return metrics, notes


# --- entry point ------------------------------------------------------------------

def run(workload: str, size: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "cdcsim" / "__init__.py").is_file():
        raise BenchError(f"no cdcsim package under {SRC}; run from a checkout of the repo")
    metrics, notes = {}, {}
    if not trace:
        imports, calibration = measure_setup()
        metrics["setup_s"] = (corrected(imports, calibration), "s")
        notes["setup_s"] = _spread(imports)
    desc, input_file = cases.prepare_inputs(workload, size, seed)
    tally = Tally()
    try:
        with ExitStack() as stack:
            workers = {}
            for scheme in cases.SCHEMES:
                config = {"scheme": scheme, "workload": desc,
                          "spec": cases.job_spec(workload, size, scheme),
                          "expected": cases.reference(workload, size, scheme)}
                workers[scheme] = WorkerProcess(scheme, config)
                stack.callback(workers[scheme].close)
            loop = traced_run if trace else timed_run
            more, more_notes = loop(workers, seconds, tally)
    finally:
        if input_file is not None:
            input_file.unlink(missing_ok=True)
    metrics.update(more)
    notes.update(more_notes)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit:6s} {notes[name]}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"ops_failed_ratio {ratio} ({tally.failed}/{tally.attempted} jobs, writes and replays)")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=cases.SIZES, default="full",
                        help="small runs the self-check's reduced jobs")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.size, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
