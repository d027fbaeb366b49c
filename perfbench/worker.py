"""Run one scheme's jobs of one workload in a process of its own.

The parent sends one JSON command a line on stdin and reads one JSON reply a
line on stdout.  A process per scheme keeps each scheme's peak RSS apart;
the parent still runs one operation at a time.

Commands:
  {"cmd": "round"}                        one verified job, write and replay
  {"cmd": "round", "trace": "time"}       the same, once, with layer spans
  {"cmd": "round", "trace": "memory"}     spans plus tracemalloc phase peaks
  {"cmd": "rss"}                          peak RSS of this process so far
"""

from __future__ import annotations

import json
import resource
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cdcsim import analytics, cli, engine  # noqa: E402
from cdcsim.placement import JobSpec  # noqa: E402

from clock import calibration_loop  # noqa: E402
from tracer import Tracer  # noqa: E402

# An operation shorter than this is repeated and the mean of the repeats is
# its time, so that millisecond writes are not lost in timer and GC noise.
MIN_OP_SECONDS = 0.3


class Job:
    """One scheme's verified job plus the fixture write and replay of its
    transcript, each with the correctness gate it must pass."""

    def __init__(self, scheme: str, spec: dict, workload_desc: dict, expected: dict):
        self.scheme = scheme
        self.spec = JobSpec(**spec)
        self.desc = workload_desc
        self.bits = {k + 1: b for k, b in enumerate(expected["bits"])}
        self.load = Fraction(expected["load"])

    def run(self):
        workload = cli.build_workload(self.desc, self.spec)
        result = engine.run(self.spec, workload, self.scheme)
        return result, analytics.build_load_report(result)

    def check_run(self, result, report) -> str | None:
        """Why the job's output is wrong, or None when it is right."""
        if self.spec.s == 1:
            if result.verification != "pass":
                return f"verification {result.verification}"
            if report.deviation != 0:
                return f"deviation {report.deviation} from the closed form"
        elif result.verification not in ("pass", "not-applicable"):
            return f"verification {result.verification}"
        if result.bits_by_node != self.bits:
            return f"bits per node {result.bits_by_node}, expected {self.bits}"
        if result.load_empirical != self.load:
            return f"load {result.load_empirical}, expected {self.load}"
        return None

    def write(self, result) -> str:
        return engine.dump_json(cli.fixture_to_json(result, self.desc))

    def replay(self, text: str) -> str | None:
        """Replay a written fixture; why it failed, or None when it passed.

        s >= 2 has no decoder yet, so there the replay reads the transcript
        back and checks its bits per node.
        """
        doc = json.loads(text)
        if self.spec.s == 1:
            verdict = cli.replay_fixture(doc)
            return None if verdict == "pass" else f"replay verdict {verdict}"
        transcript = engine.transcript_from_json(doc["transcript"])
        bits = transcript.bits_by_node()
        return None if bits == self.bits else f"replayed bits per node {bits}"


class Worker:
    def __init__(self, job: Job):
        self.job = job
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _checked(self, op: str, fn, check):
        """Run ``fn`` then ``check`` on its result; count and report failures.

        Returns (result, seconds, ok).  An exception counts as a failure and
        gives None as the result.
        """
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn()
            elapsed = perf_counter() - t0
            reason = check(result)
        except Exception as exc:  # the gate: any error is a failed operation
            elapsed = perf_counter() - t0
            result, reason = None, f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            self.errors.append(f"{self.job.scheme} {op}: {reason}"[:500])
        return result, elapsed, reason is None

    def _repeated(self, op: str, fn, check, times: dict):
        """Repeat a checked op until MIN_OP_SECONDS have passed; record its
        mean time, and the mean of a calibration loop run before and after."""
        before = calibration_loop()
        total, reps, ok = 0.0, 0, True
        while ok and (reps == 0 or total < MIN_OP_SECONDS):
            result, elapsed, ok = self._checked(op, fn, check)
            total += elapsed
            reps += 1
        times[op] = total / reps
        times[f"{op}_cal"] = (before + calibration_loop()) / 2
        return result, ok

    def round(self) -> dict:
        """One verified job, then the write and replay of its transcript."""
        job = self.job
        times: dict[str, float] = {}
        run, ok = self._repeated("job", job.run, lambda rr: job.check_run(*rr), times)
        if not ok:
            return times
        text, ok = self._repeated("write", lambda: job.write(run[0]), lambda _text: None, times)
        del run
        if ok:
            self._repeated("replay", lambda: job.replay(text), lambda reason: reason, times)
        return times

    def traced_round(self, memory: bool) -> dict:
        """One job, write and replay with spans; per-op layer records."""
        job, tracer = self.job, self.tracer
        tracer.memory = memory
        if memory:
            tracemalloc.start()
        tracer.install()
        ops = {}
        try:
            tracer.reset()
            run, t_job, ok = self._checked("job", job.run, lambda rr: job.check_run(*rr))
            ops["job"] = tracer.snapshot() | {"seconds": t_job}
            if ok:
                ops["job"]["counters"]["engine.broadcasts"] = len(run[0].transcript.broadcasts)
                tracer.reset()
                with tracer.phase("write"):
                    text, t_write, ok = self._checked("write", lambda: job.write(run[0]),
                                                      lambda _text: None)
                ops["write"] = tracer.snapshot() | {"seconds": t_write}
                del run
                if ok:
                    ops["write"]["counters"]["engine.fixture_bytes"] = len(text.encode())
                    tracer.reset()
                    with tracer.phase("replay"):
                        _, t_replay, _ = self._checked("replay", lambda: job.replay(text),
                                                       lambda reason: reason)
                    ops["replay"] = tracer.snapshot() | {"seconds": t_replay}
        finally:
            tracer.uninstall()
            if memory:
                tracemalloc.stop()
        return {"ops": ops, "absent": tracer.absent}

    def handle(self, command: dict) -> dict:
        if command["cmd"] == "rss":
            # ru_maxrss is in KiB on Linux
            return {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        attempted, failed = self.attempted, self.failed
        self.errors = []
        trace = command.get("trace")
        reply = self.traced_round(trace == "memory") if trace else self.round()
        reply.update(attempted=self.attempted - attempted, failed=self.failed - failed,
                     errors=self.errors)
        return reply


def main() -> int:
    config = json.loads(sys.argv[1])
    job = Job(config["scheme"], config["spec"], config["workload"], config["expected"])
    worker = Worker(job)
    for line in sys.stdin:
        reply = worker.handle(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
