"""Repository-wide guarantees: a standard-library-only package, and every
function the benchmark's per-layer trace wraps still exists."""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import sys

import cdcsim
from cdcsim.engine import run
from cdcsim.placement import JobSpec
from cdcsim.workloads import SyntheticRankWorkload

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_package_imports_only_the_standard_library():
    sources = sorted(pathlib.Path(cdcsim.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (path.name, module)


def test_every_traced_function_exists():
    location = importlib.util.spec_from_file_location("perfbench_tracer",
                                                      REPO / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(location)
    location.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        # the wrappers read the traced functions' arguments: run one small job
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        assert run(spec, SyntheticRankWorkload(seed=1), "cdc-ld").verification == "pass"
        spans = tracer.snapshot()["spans"]
        assert spans["codec.build_vset"][0] > 0 and spans["codec.segment_usymbol"][0] > 0
    finally:
        tracer.uninstall()
    assert not hasattr(cdcsim.codec.build_vset, "__wrapped__")
