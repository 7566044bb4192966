"""The permex names perfbench patches or calls still exist and still work."""

import importlib
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
