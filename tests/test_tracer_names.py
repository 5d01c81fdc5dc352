"""The benchmark tracer's names resolve, and tracing leaves the program as it was.

``perfbench/tracing.py`` swaps out the module attributes listed in
``WRAPPED`` for the length of a traced run. The test suite does not collect
``perfbench/``, so this file guards the names it looks up: a rename in the
package that leaves one behind would break every traced benchmark run.
"""

import ast
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


def kept_for_the_tracer():
    """(module path, name) of each import in the lines under a
    ``# Not called here`` comment in the package's modules."""
    kept = []
    for path in sorted((PERFBENCH.parent / "src" / "ubnin").glob("*.py")):
        block = False
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("# Not called here"):
                block = True
            elif block and line.startswith(("from ", "import ")):
                kept += [(path, a.asname or a.name) for a in ast.parse(line).body[0].names]
            else:
                block = False
    return kept


def test_imports_kept_for_the_tracer_are_wrapped_and_unused(tracing):
    # Such an import exists only for WRAPPED, so WRAPPED names it for its
    # module, and the module does not use it: once WRAPPED is gone, every
    # one of them can go with it.
    wrapped = {(module.__name__, attr) for module, attr, _ in tracing.WRAPPED}
    kept = kept_for_the_tracer()
    assert kept
    for path, name in kept:
        module = f"ubnin.{path.stem}"
        assert (module, name) in wrapped, f"{module}.{name}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Name) and node.id == name
                       for node in ast.walk(tree)), f"{module} uses {name}"
