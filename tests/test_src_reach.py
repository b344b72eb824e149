"""Every function and class defined under `src/rigidsearch` is reached from
`src/`: its name occurs there as a name or an attribute, not only in its own
`def` or in an import.  Code that only tests call belongs in the tests.  And
every name a `src/` module imports is used in that module."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "rigidsearch")
PERFBENCH = os.path.join(ROOT, "perfbench")

# Names kept without a caller in src/, each for a reason.
ALLOWED = {
    "bundled_stub_table": "perfbench/unit.py serves the certify workload's oracle from it",
    "schedule_study": "the entropy-schedule study, which a later command runs",
    "regeneration_frequency": "the eta0 calibration, which a later command runs",
    "entropy": "the policy entropy, which the per-generation log is to record",
    "index_of": "the acceptance criteria read a slot's probability through it",
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def _trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def test_every_definition_is_reached(tracing):
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{module}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    traced = {attr.split(".")[-1] for _, attr, _ in tracing.LAYERS}
    unreached = sorted(f"{name} ({where})" for name, where in defined.items()
                       if name not in used | traced | set(ALLOWED))
    assert not unreached, "defined in src/ but never reached there: " + ", ".join(unreached)


def test_the_allowlist_names_definitions():
    defined = {node.name for _, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(ALLOWED) <= defined


def test_every_import_is_used(tracing):
    # the benchmark's tracer patches a traced name in the module whose code
    # calls it, so that module may import it for the tracer alone
    traced = {(module, attr) for module, attr, _ in tracing.LAYERS}
    unused = []
    for name, tree in _trees():
        module = "rigidsearch." + name.removesuffix(".py")
        imported: dict[str, int] = {}
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{bound} ({name}:{line})" for bound, line in imported.items()
                   if bound not in used | {"annotations"} and (module, bound) not in traced]
    assert not unused, "imported in src/ but never used there: " + ", ".join(unused)
