import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def _cli_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_row_counts_and_the_shared_rows(tmp_path):
    # a run that stops at another step writes a longer trajectory: the rows
    # both files have are still compared value by value
    short, long = tmp_path / "short.csv", tmp_path / "long.csv"
    short.write_text("t,total_risk,alpha_1_1,alpha_1_2\n"
                     "0,2.0,0.5,0.5\n1,1.5,0.75,0.25\n")
    long.write_text("t,total_risk,alpha_1_1,alpha_1_2\n"
                    "0,2.0,0.5,0.5\n1,1.25,0.75,0.25\n2,1.0,1.0,0.0\n")
    result = _cli_digest()._compare(str(short), str(long))
    assert result == {"rows": [2, 3], "groups": {
        "total_risk": {"max_abs": 0.25, "max_rel": 0.25 / 1.5, "other": 0}}}


def test_compare_gives_no_groups_when_columns_differ(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,total_risk\n0,1.0\n")
    b.write_text("t,margin\n0,1.0\n")
    assert _cli_digest()._compare(str(a), str(b)) == {"rows": [1, 1],
                                                      "groups": None}
