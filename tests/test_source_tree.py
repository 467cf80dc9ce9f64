import ast
import importlib.util
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import votelab
import votelab.experiments

SRC = Path(votelab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
TRACER = ROOT / "perfbench" / "tracer.py"


def test_no_assert_statements_in_package():
    # Checks must survive python -O, which strips assert statements.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_module_reads_profile_rankings():
    # A profile is its counted ballots; agent order lives in sample_orders arrays.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "rankings"
    ]
    assert found == []


def test_only_models_reads_the_enumeration_cap():
    # models.all_rankings holds the m! cap; every enumeration goes through it.
    def names(node) -> set:
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.ImportFrom):
            return {alias.name for alias in node.names}
        return set()

    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "models.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "MAX_ENUMERATION_M" in names(node)
    ]
    assert found == []


def test_only_core_builds_margin_matrices():
    # Margin matrices come from the one margin kernel, core._margin_kernel.
    def builds_wmg(node) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute):  # e.g. WMG._trusted(...)
            func = func.value
        return isinstance(func, ast.Name) and func.id == "WMG"

    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and builds_wmg(node)
    ]
    assert found == []


def test_every_private_function_has_a_src_caller():
    # A private helper that only tests reach is dead code kept alive by its tests.
    defined, referenced = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    private = {
        name: where
        for name, where in defined.items()
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }
    assert len(private) > 0
    assert sorted(where for name, where in private.items() if name not in referenced) == []


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with PYPROJECT.open("rb") as handle:
        declared = {
            re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            for spec in tomllib.load(handle)["project"]["dependencies"]
        }
    imported = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"votelab"}
    assert third_party == declared


def _function_bindings() -> dict:
    """Every function the benchmark tracer may rebind: module attributes,
    function defaults, and ``Profile.__post_init__``."""
    bindings = {"Profile.__post_init__": votelab.core.Profile.__dict__["__post_init__"]}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "votelab" or name.startswith("votelab.")):
            continue
        for key, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                bindings[name, key] = value
                bindings[name, key, "defaults"] = (value.__defaults__, value.__kwdefaults__)
    return bindings


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # The benchmark's tracer binds package functions by name; a renamed or
    # deleted one breaks its install, so this runs one traced op through it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    before = _function_bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # Calls go through the module attributes the tracer rebinds; the
        # package attribute ``votelab.greedy_dodgson`` is the function.
        core, models = sys.modules["votelab.core"], sys.modules["votelab.models"]
        tracer.begin_op()
        p = core.Profile.of([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
        model = models.AlphaIC(3, Fraction(1, 2))
        models.sample(model, core.Ranking.of([0, 1, 2]), np.random.default_rng(0))
        sys.modules["votelab.greedy_dodgson"].greedy_dodgson(p, 0)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert _function_bindings() == before
    assert tracer.calls["models.sample"] == tracer.calls["greedy_dodgson.greedy_dodgson"] == 1
    assert tracer.calls["core.Profile"] >= 1


def test_no_pragma_no_cover_in_package():
    # An unreachable branch kept only to raise is a stub; let the last branch be a plain else.
    found = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"pragma:\s*no\s*cover", line)
    ]
    assert found == []


def test_every_python_file_parses_as_python_3_10():
    # pyproject.toml declares requires-python >=3.10.
    paths = [
        path
        for tree in ("src", "tests", "perfbench", "scripts")
        for path in sorted((ROOT / tree).rglob("*.py"))
    ]
    assert len(paths) > 0
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
