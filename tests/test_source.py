"""Checks on the package source itself, and the acceptance gate run
under `python -O`."""

import ast
import glob
import importlib
import json
import os
import re
import sys

import pytest

import sliceobs
from fresh_python import run_python

PACKAGE_DIR = os.path.dirname(sliceobs.__file__)
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(TESTS_DIR)


def _package_trees():
    """(file name, syntax tree) for each module of the package."""
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE_DIR, name)
            with open(path, encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=path)


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; load-bearing checks raise explicitly
    found = [f"{name}:{node.lineno}" for name, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in sliceobs: {', '.join(found)}"


def _optimize_reads(tree):
    """Line numbers of each `__debug__` and each read of `sys.flags`."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__debug__"
        or isinstance(node, ast.Attribute) and node.attr == "flags"
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
        or isinstance(node, ast.ImportFrom) and node.module == "sys"
        and any(alias.name == "flags" for alias in node.names))


def test_nothing_reads_the_optimize_flag():
    # besides stripping asserts, `python -O` only sets __debug__ to False
    # and sys.flags.optimize to 1; with no assert statement above, no
    # module reading either means -O cannot change what the package
    # does, so a check run in process stands for one run under -O
    assert _optimize_reads(ast.parse(
        "import sys\nfrom sys import flags\n"
        "if __debug__ or sys.flags.optimize:\n    pass\n")) == [2, 3, 3]
    found = [f"{name}:{line}" for name, tree in _package_trees()
             for line in _optimize_reads(tree)]
    assert not found, f"__debug__ or sys.flags in sliceobs: {found}"


def test_package_imports_only_the_standard_library():
    # the package is dependency-free: every module it imports is in the
    # standard library or is the package itself
    foreign = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.partition(".")[0]]
            else:
                continue
            foreign += [f"{name}:{node.lineno} {top}" for top in tops
                        if top not in sys.stdlib_module_names
                        and top != "sliceobs"]
    assert not foreign, f"imports outside the standard library: {foreign}"


def test_every_all_name_resolves():
    # a deleted helper must leave each module's __all__ too, or
    # `from sliceobs.x import *` fails on the stale name
    missing = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        modname = "sliceobs" if name == "__init__.py" else \
            f"sliceobs.{name[:-3]}"
        module = importlib.import_module(modname)
        missing += [f"{modname}.{attr}"
                    for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert not missing, f"names in __all__ but not defined: {missing}"


def _package_level_names_used():
    """The names read as `sliceobs.<name>` or imported by `from sliceobs
    import ...` in README.md and the files under perfbench/, leaving out
    submodules and the module's own dunder attributes."""
    paths = [os.path.join(REPO_DIR, "README.md")]
    bench = os.path.join(REPO_DIR, "perfbench")
    paths += [os.path.join(bench, name) for name in sorted(os.listdir(bench))
              if name.endswith((".py", ".md"))]
    submodules = {name[:-3] for name in os.listdir(PACKAGE_DIR)
                  if name.endswith(".py")}
    used = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        used.update(re.findall(r"\bsliceobs\.(\w+)", text))
        for names in re.findall(
                r"\bfrom sliceobs import (\([^)]*\)|[\w ,]+)", text):
            used.update(re.findall(r"\w+", names))
    return {name for name in used
            if name not in submodules and not name.startswith("__")}


def test_package_names_are_the_ones_their_users_reach():
    # the package level holds what README's sketch and the benchmark
    # reach through `sliceobs.`; everything else stays in its submodule
    used = _package_level_names_used()
    exported = set(sliceobs.__all__) - {"__version__"}
    assert sorted(exported - used) == [], "exported but unused"
    assert sorted(used - exported) == [], "used but not exported"


def test_backticked_layer_names_exist():
    # a deleted or renamed function must leave the docs that name it:
    # every `layer.name` or `sliceobs.layer.name` in backticks, with
    # layer a submodule, in README.md, the package, the oracles and the
    # demos resolves (ROADMAP.md and CHANGES.md name removed functions
    # on purpose)
    submodules = {name[:-3] for name in os.listdir(PACKAGE_DIR)
                  if name.endswith(".py") and name != "__init__.py"}
    paths = [os.path.join(REPO_DIR, "README.md")]
    for pattern in (os.path.join(PACKAGE_DIR, "*.py"),
                    os.path.join(TESTS_DIR, "*_oracle.py"),
                    os.path.join(REPO_DIR, "demos", "*.py")):
        paths += sorted(glob.glob(pattern))
    stale = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for layer, attr in re.findall(r"`(?:sliceobs\.)?(\w+)\.(\w+)", text):
            if layer in submodules and not hasattr(
                    importlib.import_module(f"sliceobs.{layer}"), attr):
                stale.append(f"{os.path.relpath(path, REPO_DIR)}: "
                             f"{layer}.{attr}")
    assert not stale, f"backticked names that do not exist: {stale}"


def test_every_oracle_is_used_by_a_test():
    # a second route is kept only where a test uses it as an independent
    # oracle, so each tests/*_oracle.py must be imported by a test module
    oracles = sorted(name[:-3] for name in os.listdir(TESTS_DIR)
                     if name.endswith("_oracle.py"))
    imported = set()
    for name in sorted(os.listdir(TESTS_DIR)):
        if not (name.startswith("test_") and name.endswith(".py")):
            continue
        path = os.path.join(TESTS_DIR, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    unused = [name for name in oracles if name not in imported]
    assert oracles and not unused, f"oracles no test imports: {unused}"


def test_distribution_is_named_and_versioned_by_the_package():
    # one name and one version: the distribution is the package, and its
    # version is read from sliceobs.__version__
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_DIR, "pyproject.toml"), "rb") as fh:
        config = tomllib.load(fh)
    project = config["project"]
    assert project["name"] == "sliceobs"
    assert "version" not in project
    assert project["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "sliceobs.__version__"}


# traced names whose functions have left the package; each reads 0 in the
# benchmark until BENCHMARK.json drops it
STALE_TRACED = {"linalg.det_laurent", "blanchfield.blanchfield_entries",
                "twisted.fox_matrix", "linalg.det_bareiss",
                "seifert.seifert_matrix", "ffpoly.interpolate"}


def test_benchmark_traces_functions_that_exist():
    # the benchmark's tracer reports a name it cannot find as zeros, so a
    # renamed or deleted layer function would silently zero its metric
    path = os.path.join(REPO_DIR, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    traced = {m["name"].rsplit(".", 1)[0] for m in per_layer
              if not m["name"].startswith("trace.")}
    missing = set()
    for name in traced:
        layer, attr = name.split(".")
        module = importlib.import_module(f"sliceobs.{layer}")
        if not callable(getattr(module, attr, None)):
            missing.add(name)
    assert sorted(missing - STALE_TRACED) == [], "traced but not defined"
    assert sorted(STALE_TRACED - missing) == [], "defined again: unlist it"


def test_acceptance_gate_under_optimize():
    # -O strips the asserts of the package but not those of the test
    # modules, which pytest rewrites, so the gate still checks every
    # criterion against code whose own checks must not be asserts; the
    # gate uses no Hypothesis, so its plugin is not loaded
    gate = os.path.join(TESTS_DIR, "test_acceptance.py")
    proc = run_python(["-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "-p", "no:hypothesispytest", gate], 300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "9 passed" in proc.stdout, proc.stdout[-2000:]
