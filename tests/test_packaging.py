"""The runtime needs numpy alone, and every import is a declared dependency."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import popdyn
from popdyn import SplitAssignment, theta_for_assignment
from popdyn.scenario_io import load_scenario, packaged_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _declared(*extras):
    """Import names of the project's dependencies plus the given extras."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + [
        spec for extra in extras
        for spec in project["optional-dependencies"][extra]]
    return {re.match(r"[\w.-]+", spec).group().lower().replace("-", "_")
            for spec in specs}


def _third_party_imports(directory):
    """Top-level modules imported by the .py files under directory that are
    neither stdlib, popdyn, nor a module of that directory itself."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    local = {path.stem for path in directory.glob("*.py")}
    return names - set(sys.stdlib_module_names) - local - {"popdyn"}


def test_package_imports_are_declared_dependencies():
    imports = _third_party_imports(ROOT / "src" / "popdyn")
    assert "numpy" in imports
    assert imports - _declared() == set()


def test_test_imports_are_declared_test_dependencies():
    imports = _third_party_imports(ROOT / "tests")
    assert {"numpy", "pytest", "scipy"} <= imports
    assert imports - _declared("test") == set()


def test_no_subcommand_loads_scipy(tmp_path):
    # scipy is a test dependency only: the hull and assignment references
    # in the tests use it, no command may
    three = str(packaged_scenario("three_centers"))
    split = SplitAssignment((0, 1, 1))
    theta = theta_for_assignment(split, load_scenario(three).scenario)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"alpha": split.to_alpha(2).tolist(),
                                 "theta": theta.tolist()}))
    commands = [
        ["simulate", three, "--out", str(tmp_path / "simulate")],
        ["classify", three, "--state", str(state)],
        ["enumerate", three, "--out", str(tmp_path / "equilibria.csv")],
        ["competition", str(packaged_scenario("competition12")),
         "--target-m", "3", "--out", str(tmp_path / "competition")],
        ["goldens", "--out", str(tmp_path / "goldens")],
        ["probe", three, "--assignment", "0,1,1", "--trials", "2"],
    ]
    src = os.path.dirname(os.path.dirname(popdyn.__file__))
    code = (f"import contextlib, json, sys; sys.path.insert(0, {src!r})\n"
            "from popdyn.cli import main\n"
            "with contextlib.redirect_stdout(sys.stderr):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                if m.startswith('scipy'))]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, check=True)
    codes, scipy_modules = json.loads(out.stdout)
    assert codes == [0] * len(commands)
    assert scipy_modules == []


def test_model_imports_no_module_built_on_it():
    # the engine, the classifier, the file format, the CLI and the goldens
    # all import model: an import back, at module level or inside a
    # function, would make a cycle
    imported = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "popdyn" / "model.py")
                                   .read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            imported.update(part for name in names for part in name.split("."))
    assert "errors" in imported
    assert imported.isdisjoint({"engine", "equilibria", "scenario_io", "cli",
                                "goldens"})
