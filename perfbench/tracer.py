"""Per-layer spans recorded from outside the package.

Every span wraps a public function of a ``cdcsim`` module.  The wrapper is
installed on each attribute that holds the function, in every loaded
``cdcsim`` module, because callers often import functions by name (``engine``
calls its own ``decode_cdc_s1``, not ``codec.decode_cdc_s1``).  A span whose
function no longer exists is recorded as absent and measures nothing.

Self time is a span's duration minus the time of the spans it called.  With
``memory`` on, the four job phases and the write and replay ops also record
the peak of ``tracemalloc``'s traced memory while they were open.
"""

from __future__ import annotations

import importlib
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

# Span name -> (module, attribute path).  ``*`` as the class name means every
# class of the module that defines the method itself.
SPANS = {
    "cli.build_workload": ("cdcsim.cli", "build_workload"),
    "cli.replay_fixture": ("cdcsim.cli", "replay_fixture"),
    "workloads.ingest_text": ("cdcsim.workloads", "ingest_text"),
    "workloads.build_store": ("cdcsim.workloads", "*.build_store"),
    "placement.make_placement": ("cdcsim.placement", "make_placement"),
    "engine.run_uncoded_shuffle": ("cdcsim.engine", "run_uncoded_shuffle"),
    "engine.run_cdc_shuffle": ("cdcsim.engine", "run_cdc_shuffle"),
    "engine.run_cdc_ld_shuffle": ("cdcsim.engine", "run_cdc_ld_shuffle"),
    "engine.decode_and_verify": ("cdcsim.engine", "decode_and_verify"),
    "engine.reduce_phase": ("cdcsim.engine", "reduce_phase"),
    "engine.transcript_to_json": ("cdcsim.engine", "transcript_to_json"),
    "engine.transcript_from_json": ("cdcsim.engine", "transcript_from_json"),
    "engine.dump_json": ("cdcsim.engine", "dump_json"),
    "codec.build_vset": ("cdcsim.codec", "build_vset"),
    "codec.encode_cdc": ("cdcsim.codec", "encode_cdc"),
    "codec.segment_usymbol": ("cdcsim.codec", "segment_usymbol"),
    "codec.decode_cdc_s1": ("cdcsim.codec", "decode_cdc_s1"),
    "codec.ld_compress": ("cdcsim.codec", "ld_compress"),
    "codec.ld_decompress": ("cdcsim.codec", "ld_decompress"),
    "codec.multicast_coverage": ("cdcsim.codec", "multicast_coverage"),
    "gf2.Gf2ExtField.mul": ("cdcsim.gf2", "Gf2ExtField.mul"),
    "gf2.rank_and_basis": ("cdcsim.gf2", "rank_and_basis"),
    "gf2.reconstruct": ("cdcsim.gf2", "reconstruct"),
    "analytics.build_load_report": ("cdcsim.analytics", "build_load_report"),
}

# Spans that open a memory phase of the job.
PHASE_OF_SPAN = {
    "placement.make_placement": "placement",
    "workloads.build_store": "map",
    "engine.run_uncoded_shuffle": "shuffle",
    "engine.run_cdc_shuffle": "shuffle",
    "engine.run_cdc_ld_shuffle": "shuffle",
    "engine.decode_and_verify": "decode_and_verify",
}


def _vset_key(args, kwargs):
    group = kwargs.get("group", args[0] if args else ())
    holders = kwargs.get("holders", args[1] if len(args) > 1 else ())
    return tuple(sorted(group)), tuple(sorted(holders))


def _basis_counts(tracer, args, kwargs, result):
    matrix = kwargs.get("m", args[0] if args else None)
    tracer.counters["gf2.rank_and_basis.rows"] += matrix.nrows
    tracer.counters["gf2.rank_and_basis.rank"] += result.rho


def _vset_seen(tracer, args, kwargs, result):
    tracer.vsets.add(_vset_key(args, kwargs))


AFTER = {
    "gf2.rank_and_basis": _basis_counts,
    "codec.build_vset": _vset_seen,
}


class Tracer:
    def __init__(self) -> None:
        self.memory = False
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget what was recorded; the wrappers stay installed."""
        self.spans: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, int] = {
            "gf2.rank_and_basis.rows": 0, "gf2.rank_and_basis.rank": 0}
        self.vsets: set = set()
        self.peaks: dict[str, float] = {}
        self._stack: list[float] = []
        self._open: list[str] = []

    # --- installing -----------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, (module_name, path) in SPANS.items():
            targets = self._targets(module_name, path)
            if not targets:
                self.absent.append(name)
            for owner, attr, original in targets:
                self._patch(owner, attr, original, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _targets(self, module_name: str, path: str):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return []
        if "." in path:
            cls_name, method = path.split(".")
            if cls_name == "*":
                classes = [c for c in vars(module).values()
                           if isinstance(c, type) and c.__module__ == module_name]
            else:
                classes = [getattr(module, cls_name, None)]
            return [(c, method, c.__dict__[method]) for c in classes
                    if c is not None and method in c.__dict__]
        original = getattr(module, path, None)
        if not callable(original):
            return []
        # every cdcsim module that imported the function by name
        return [(mod, path, original) for mod_name, mod in list(sys.modules.items())
                if mod_name.split(".")[0] == "cdcsim" and mod is not None
                and getattr(mod, path, None) is original]

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)
        phase = PHASE_OF_SPAN.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if phase is not None and tracer.memory:
                with tracer.phase(phase):
                    result = tracer._timed(name, fn, args, kwargs)
            else:
                result = tracer._timed(name, fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- recording ------------------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            children = stack.pop()
            entry = self.spans.get(name)
            if entry is None:
                entry = self.spans[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - children
            if stack:
                stack[-1] += elapsed

    def _fold_peak(self) -> None:
        _current, peak = tracemalloc.get_traced_memory()
        for name in self._open:
            self.peaks[name] = max(self.peaks.get(name, 0.0), peak / 2**20)
        tracemalloc.reset_peak()

    @contextmanager
    def phase(self, name: str):
        """Record the traced-memory peak, in MB, while ``name`` is open."""
        if not self.memory:
            yield
            return
        self._fold_peak()
        self._open.append(name)
        try:
            yield
        finally:
            self._fold_peak()
            self._open.pop()

    def snapshot(self) -> dict:
        calls = self.spans.get("codec.build_vset", [0])[0]
        counters = dict(self.counters)
        counters["codec.build_vset.distinct_ratio"] = len(self.vsets) / calls if calls else 0.0
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": counters, "peaks": dict(self.peaks)}
