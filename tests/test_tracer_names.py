"""The benchmark tracer's names resolve, and tracing leaves the program as it was.

``perfbench/tracing.py`` swaps out the module attributes listed in
``WRAPPED`` for the length of a traced run. The test suite does not collect
``perfbench/``, so this file guards the names it looks up: a rename in the
package that leaves one behind would break every traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_name_resolves(tracing):
    assert tracing.WRAPPED
    for module, attr, _ in tracing.WRAPPED:
        assert module.__name__.startswith("ubnin.")
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_tracer_restores_every_attribute(tracing):
    before = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    with tracing.Tracer():
        inside = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    after = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    assert all(a is not b for a, b in zip(inside, before))
    assert all(a is b for a, b in zip(after, before))
