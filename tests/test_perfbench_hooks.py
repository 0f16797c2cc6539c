"""The benchmark's tracer patches cylvar names where callers look them up.

A refactor that renames or drops one of those names, or that binds a
patched function where the tracer cannot reach it, silently empties the
per-layer metrics; these tests catch both.
"""

import importlib
import pathlib

import pytest

from cylvar import hamiltonian, specfun
from cylvar.trialfn import SystemConfig

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_patched_name_exists_and_is_restored(tracing):
    targets = [(module, attr) for _, module, attr, _ in tracing.SPAN_TARGETS]
    targets += [(module, attr) for _, module, attr in tracing.COUNT_TARGETS]
    before = [getattr(module, attr) for module, attr in targets]
    with tracing.Tracer().installed():
        pass
    assert [getattr(module, attr) for module, attr in targets] == before


def test_kummer_root_calls_kummer_m_through_the_module(tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        e0 = hamiltonian.reference_energy(SystemConfig(B=1.0, rho0=2.0))
    assert e0 == specfun.landau_cylinder_energy(1.0, 2.0)
    assert tracer.counts["specfun.kummer_m.calls"] > 0
    assert tracer.span_totals()["specfun.landau_cylinder_energy"][0] == 1
