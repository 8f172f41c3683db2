"""tools/mutants.py: every mutant plants into today's code, and a planted
mutant's outcome is read from its tests' exit status."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_plants_into_one_place():
    # a refactor that rewrites a mutant's code must port the mutant
    assert mutants.plant_problems(ROOT) == []


def test_the_table_names_its_tests_and_survivors():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert mutants.SURVIVORS <= set(names)
    for name, _, old, new, tests in mutants.MUTANTS:
        assert old != new and tests, name
        for test in tests:
            assert (ROOT / test.split("::")[0]).is_file(), (name, test)


@pytest.fixture
def checkout(tmp_path):
    (tmp_path / "src" / "popdyn").mkdir(parents=True)
    (tmp_path / "src" / "popdyn" / "__init__.py").write_text("")
    (tmp_path / "src" / "popdyn" / "a.py").write_text(
        "def f():\n    return 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "from popdyn.a import f\n\n\ndef test_f():\n    assert f() == 1\n")
    return tmp_path


@pytest.mark.parametrize("new, tests, outcome", [
    ("return 2", ["tests/test_a.py"], "killed"),
    ("return (1)", ["tests/test_a.py::test_f"], "survived"),
    ("return 2", ["tests/test_missing.py"], "error"),
])
def test_outcome_follows_the_tests(checkout, new, tests, outcome):
    mutant = ("m", "a.py", "return 1", new, tests)
    assert mutants.run_mutant(checkout, mutant)[0] == outcome
    assert (checkout / "src" / "popdyn" / "a.py").read_text() == (
        "def f():\n    return 1\n")


def test_an_old_text_that_does_not_occur_once_is_an_error(checkout):
    assert mutants.plant_problems(checkout, [
        ("gone", "a.py", "return 3", "return 4", ["tests/test_a.py"])]) == [
        "gone: old text occurs 0 times in a.py"]
    assert mutants.run_mutant(checkout, ("gone", "a.py", "return 3",
                                         "return 4", ["tests/test_a.py"])) == (
        "error", 0.0)
