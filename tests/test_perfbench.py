"""The permex names perfbench and the benchmark script patch or call still
exist and still work."""

import ast
import importlib
import importlib.util
import subprocess
import sys
import types
from pathlib import Path

import pytest

from permex import cli, kernels, moments, permanents

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_boundaries_exist(tracing):
    for module, attr, _, _ in tracing.BOUNDARIES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for fn in (permanents._table_cache.clear, kernels.compiled_available,
               kernels.profile_backend_name, moments.profile_iterator, cli.dispatch):
        assert callable(fn)


def test_benchmark_script_names_exist():
    # the script's timings run only under __main__, so loading it resolves
    # every permex name it imports; each name it reads off a permex module
    # must exist too
    path = ROOT / "benchmarks" / "benchmark_backends.py"
    spec = importlib.util.spec_from_file_location("benchmark_backends", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = getattr(script, node.value.id, None)
            if isinstance(module, types.ModuleType) and module.__name__.startswith("permex"):
                assert hasattr(module, node.attr), (node.value.id, node.attr)


def test_backend_twin_agrees(tracing):
    times, agree = tracing.backend_twin(1)
    assert agree
    assert sorted(times) == ["n6.pure", "n8.pure"]


def test_recorded_outputs_match(tracing):
    # every command a workload can run, dispatched in this process: exit 0,
    # stdout byte-identical to expected.json, and verify reports passing
    common = importlib.import_module("common")
    _, failures = tracing.dispatch_all(common.all_commands(), common.load_expected())
    assert failures == []


def test_selftest_passes():
    # the benchmark's own checks of its failure counting, as a script
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
