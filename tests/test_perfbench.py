"""The permex names perfbench patches or calls still exist and still work."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from permex import cli, kernels, moments, permanents

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
