import importlib.util
import json
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
# the tool's output at the last change that altered a CLI output; such a
# change rewrites this file and records its --against report
DIGEST = pathlib.Path(__file__).resolve().parent / "data" / "cli_digest.jsonl"


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


def test_compare_lists_groups_found_in_one_file_only(tmp_path):
    # a new key is listed, and the groups both files have are still compared
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,total_risk\n0,1.0\n")
    b.write_text("t,margin\n0,1.0\n")
    assert _cli_digest()._compare(str(a), str(b)) == {
        "rows": [1, 1], "groups": {}, "only": [["total_risk"], ["margin"]]}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"fraction": 0.5, "records": [
        {"steps": 3, "distance": 0.25}, {"steps": 5, "distance": 1.0}]}))
    b.write_text(json.dumps({"fraction": 0.5, "records": [
        {"steps": 4, "distance": 0.25, "reason": "detector"},
        {"steps": 5, "distance": 1.5, "reason": "departed"}]}))
    assert _cli_digest()._compare(str(a), str(b)) == {
        "rows": [1, 1], "only": [[], ["records.reason"]], "groups": {
            "records.steps": {"max_abs": 1.0, "max_rel": 0.25, "other": 0},
            "records.distance": {"max_abs": 0.5, "max_rel": 0.5 / 1.5,
                                 "other": 0}}}


def test_compare_counts_a_value_without_a_counterpart(tmp_path):
    # a row whose group has more values in one file: the extra one differs
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,alpha_1_1,alpha_1_2\n0,0.5,0.5\n")
    b.write_text("t,alpha_1_1,alpha_1_2,alpha_1_3\n0,0.5,0.5,0.0\n")
    assert _cli_digest()._compare(str(a), str(b)) == {"rows": [1, 1], "groups": {
        "alpha": {"max_abs": 0.0, "max_rel": 0.0, "other": 1}}}


def test_every_cli_output_is_byte_identical_to_the_digest():
    # every run of the tool, on this checkout: its exit code and each output
    # file's sha256 and size (the digests are of one numpy build's floats)
    def keyed(text):
        return {(d["run"], d["file"]): d for d in map(json.loads,
                                                      text.splitlines())}

    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, check=True)
    got, want = keyed(proc.stdout), keyed(DIGEST.read_text())
    differ = [f"{run} {file}" for run, file in sorted(got.keys() | want.keys())
              if got.get((run, file)) != want.get((run, file))]
    assert not differ, f"outputs that differ from {DIGEST.name}: {differ}"
