"""Source hygiene: every module of the package and every test module uses
each name it imports, the spectral layer does not import the solver, and
every function the benchmark's span tracer looks up by name exists.

`__init__.py` is exempt, since its imports are the public re-exports.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import matrange

PACKAGE = Path(matrange.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` and `from a import b` bind their names
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d\nnp.ones(c)\n") \
        == ["line 1: os", "line 3: d"]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.stem for p in MODULES] + [f"tests.{p.stem}" for p in TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """The package modules a module imports from, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = (node.module or "").removeprefix("matrange.")
            found |= {alias.name for alias in node.names} if not module else {module}
        elif isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("matrange.") for alias in node.names}
    return found


def test_ranges_does_not_import_the_solver():
    # the spectral layer answers from eigenvalues alone
    assert imported_modules("from . import feasibility\nimport matrange.feasibility\n"
                            "from .feasibility import x\n") == {"feasibility"}
    source = (PACKAGE / "ranges.py").read_text(encoding="utf-8")
    assert "feasibility" not in imported_modules(source)


def test_traced_layer_functions_resolve():
    # bench/spans.py imports only the standard library at module level
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{fn}" for mod, fn in spans.TARGETS
               if not callable(getattr(importlib.import_module("matrange." + mod), fn, None))]
    assert spans.TARGETS and missing == []
