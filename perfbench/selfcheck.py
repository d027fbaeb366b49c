"""Self-check of the benchmark at a reduced size.

    python3 perfbench/selfcheck.py

Runs every workload once at the small size in both modes and checks that
each metric named in BENCHMARK.json appears and no operation fails; checks
the trace counts that pin what the trace measures; feeds the replay gate a
transcript with one flipped payload bit and checks that it counts as a
failed operation; checks that a span whose function is gone is reported as
absent; and checks that the benchmark refuses to run without the package.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import cases
import run
import tracer
import worker

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, f"{workload} --trace {trace} exits 0 (got {proc.returncode})")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{workload} --trace {trace} prints a JSON result")
        return None


def check_runs() -> None:
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    check({w["name"] for w in declared["workloads"]} == set(cases.WORKLOADS),
          "BENCHMARK.json lists the workloads cases.py defines")
    names = {0: [m["name"] for m in declared["end_to_end"]],
             1: [m["name"] for m in declared["per_layer"]]}
    check(names[0] == run.end_to_end_names(), "BENCHMARK.json end_to_end matches run.py")
    check(names[1] == run.per_layer_names(), "BENCHMARK.json per_layer matches run.py")
    for workload in cases.WORKLOADS:
        for trace in (0, 1):
            result = bench(workload, trace)
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} --trace {trace}: {result['failed']} of "
                  f"{result['attempted']} operations failed")
            check(sorted(result["metrics"]) == sorted(names[trace]),
                  f"{workload} --trace {trace} reports every declared metric")
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                check(all(v > 0 for v in metrics.values()),
                      f"{workload}: every end-to-end metric is above 0")
            elif workload == "paper-fig4":
                # build_vset calls depend on K and r only: the full size has them too
                check(metrics["codec.build_vset.calls.cdc"] == 5880,
                      "paper-fig4: 5880 build_vset calls per cdc job")
                check(metrics["gf2.Gf2ExtField.mul.calls.cdc"] == 0,
                      "paper-fig4: no extension-field multiplications")
            elif workload == "general-s":
                check(metrics["gf2.Gf2ExtField.mul.calls.cdc"] > 0,
                      "general-s: extension-field multiplications are counted")


def check_flipped_bit() -> None:
    """One flipped payload bit must fail the replay gate, for every scheme."""
    desc, _ = cases.prepare_inputs("paper-fig4", "small", 1)
    for scheme in cases.SCHEMES:
        job = worker.Job(scheme, cases.job_spec("paper-fig4", "small", scheme), desc,
                         cases.reference("paper-fig4", "small", scheme))
        w = worker.Worker(job)
        result, _report = job.run()
        text = job.write(result)
        w._checked("replay", lambda: job.replay(text), lambda reason: reason)
        check(w.failed == 0, f"{scheme}: the untouched transcript replays as pass")
        doc = json.loads(text)
        payload = doc["transcript"]["broadcasts"][0]["payloads"][0]
        payload["hex"] = f"{int(payload['hex'], 16) ^ 1:x}"
        flipped = json.dumps(doc)
        w._checked("replay", lambda: job.replay(flipped), lambda reason: reason)
        check(w.failed == 1 and w.attempted == 2,
              f"{scheme}: a flipped payload bit counts as a failed operation ({w.errors})")


def check_absent_span() -> None:
    spans = dict(tracer.SPANS)
    tracer.SPANS["codec.removed_function"] = ("cdcsim.codec", "removed_function")
    tracer.SPANS["gf2.Removed.method"] = ("cdcsim.gf2", "Removed.method")
    try:
        t = tracer.Tracer()
        t.install()
        t.uninstall()
    finally:
        tracer.SPANS.clear()
        tracer.SPANS.update(spans)
    check(sorted(t.absent) == ["codec.removed_function", "gf2.Removed.method"],
          f"missing functions are reported as absent ({t.absent})")


def check_refuses_without_package() -> None:
    cases.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cases.WORK_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, f"{tmp}/{run.HERE.name}",
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "paper-fig4",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without src/ it exits {proc.returncode} and prints no result")


def main() -> int:
    check_runs()
    check_flipped_bit()
    check_absent_span()
    check_refuses_without_package()
    print(f"selfcheck: {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
