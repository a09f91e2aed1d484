"""Every public function and method under src/qpkdv is referenced by some
module there, or is an entry point in ENTRY_POINTS.  A helper that only the
tests call (an oracle, a dense materialization, a serializer) lives in the
test module that calls it.

The check matches names, not owners: a method counts as read when any name
or attribute of that spelling is read anywhere under src.  So a test-only
method that shares its name with a used one passes unseen; the test-only
`ToplitzOperator.reality_defect`, read as the then `FourierField.reality_defect`
in `spectral`, was found by hand."""

import ast
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpkdv"
TRACER = SRC.parents[1] / "bench" / "tracer.py"

# what bench/, demos/ and the README call, and the reader of the solution
# files that `solve` writes
ENTRY_POINTS = {
    "kamreduce.eigenvalue_report",
    "nonlin.parse_nonlinearity",
    "regularize.regularize_at",
    "solver.cantor_measure",
    "solver.galerkin_newton",
    "solver.nash_moser",
    "dynamics.random_phase_state",
    "dynamics.stability_report",
    "kamreduce.reduce",
    "spectral.field_from_json",
}


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, name) of the module's public functions and of the
    public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def unreferenced_definitions(src: Path = SRC) -> list:
    """Public functions and methods under src whose name no module there reads."""
    defined, read = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.extend(_public_definitions(tree, path.stem))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(qual for qual, name in defined if name not in read)


def test_every_public_function_is_used_in_src_or_an_entry_point():
    unused = set(unreferenced_definitions())
    assert unused <= ENTRY_POINTS, (
        f"only the tests call {sorted(unused - ENTRY_POINTS)}: move them into "
        "the test modules that call them")


def test_entry_points_exist():
    defined = set()
    for path in SRC.glob("*.py"):
        defined.update(q for q, _ in _public_definitions(ast.parse(path.read_text()), path.stem))
    assert ENTRY_POINTS <= defined


def test_a_test_only_helper_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef helper():\n    return used()\n\n\n"
        "class K:\n    def method(self):\n        return 2\n\n    def _private(self):\n"
        "        return self.method()\n")
    (tmp_path / "b.py").write_text("__all__ = ['helper']\n")
    assert unreferenced_definitions(tmp_path) == ["a.helper"]


def _tracer_tables() -> dict:
    """TRACED, CLASSMETHODS and SPLIT_BY_KIND of the benchmark's tracer, read
    from its source as literals, without importing it."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("TRACED", "CLASSMETHODS", "SPLIT_BY_KIND"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_traced_benchmark_api_exists():
    # the tracer wraps these by name: a deleted or renamed one breaks the
    # benchmark, and a split one must take the kind first (spans split by args[0])
    tables = _tracer_tables()
    assert tables.keys() == {"TRACED", "CLASSMETHODS", "SPLIT_BY_KIND"}
    traced, missing = {}, []
    for prefix, module, attr in tables["TRACED"]:
        mod = importlib.import_module(f"qpkdv.{module}")
        if hasattr(mod, attr):
            traced[prefix] = getattr(mod, attr)
        else:
            missing.append(f"{module}.{attr}")
    for _, module, cls, attr in tables["CLASSMETHODS"]:
        owner = getattr(importlib.import_module(f"qpkdv.{module}"), cls, None)
        if not isinstance(vars(owner).get(attr) if owner else None, classmethod):
            missing.append(f"classmethod {module}.{cls}.{attr}")
    assert not missing, f"bench/tracer.py traces what qpkdv no longer has: {missing}"
    for prefix in tables["SPLIT_BY_KIND"]:
        assert list(inspect.signature(traced[prefix]).parameters)[0] == "kind", prefix
