"""tools/bench.py turns perfbench and pytest output into a BENCH file."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _result_line(wall, setup=0.2, rss=40.0, failed=0, attempted=10):
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": {
                           "wall_s": {"value": wall, "unit": "s"},
                           "setup_s": {"value": setup, "unit": "s"},
                           "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def _checkout(path, src_lines, test_lines):
    (path / "src" / "popdyn").mkdir(parents=True)
    (path / "tests").mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 2,
        "workloads": [{"name": "oracle"}, {"name": "gd50"}]}))
    (path / "src" / "popdyn" / "a.py").write_text(
        '"""Doc."""\n\n' + "x = 1\n" * src_lines)
    (path / "tests" / "test_a.py").write_text("# note\n" + "y = 2\n" * test_lines)
    return path


def test_parse_result_reads_the_last_line():
    out = "CHECK noise\n" + _result_line(0.5) + "\n"
    result = bench.parse_result(out)
    assert result["metrics"]["wall_s"]["value"] == 0.5
    with pytest.raises(ValueError):
        bench.parse_result("")
    with pytest.raises(ValueError, match="no 'failed'"):
        bench.parse_result('{"correct": true, "attempted": 1, "metrics": {}}')


@pytest.mark.parametrize("line, want", [
    ("596 passed, 1 xfailed in 62.26s (0:01:02)",
     {"passed": 596, "xfailed": 1, "time_s": 62.26}),
    ("1 failed, 3 passed, 2 warnings, 1 error in 4.00s",
     {"failed": 1, "passed": 3, "warning": 2, "error": 1, "time_s": 4.0}),
    ("5 passed in 0.3s", {"passed": 5, "time_s": 0.3}),
])
def test_parse_suite_reads_the_summary_line(line, want):
    assert bench.parse_suite(f"....x.\n[100%]\n{line}\n") == want


def test_parse_suite_without_a_summary_fails():
    with pytest.raises(ValueError):
        bench.parse_suite("ImportError while loading conftest\n")


def test_summarize_takes_medians_and_sums_failures():
    runs = [bench.parse_result(_result_line(w, rss=r, failed=f))
            for w, r, f in ((0.3, 41.0, 0), (0.1, 40.0, 1), (0.2, 42.0, 0))]
    out = bench.summarize([1, 2, 3], runs)
    assert out["median"] == {"wall_s": 0.2, "setup_s": 0.2,
                             "peak_rss_mb": 41.0}
    assert (out["runs"], out["attempted"], out["failed"]) == (3, 30, 1)
    assert out["correct"] is False
    assert [r["wall_s"] for r in out["per_run"]] == [0.3, 0.1, 0.2]


def test_main_alternates_the_checkouts_and_writes_both_sides(tmp_path,
                                                             monkeypatch):
    change = _checkout(tmp_path / "change", 4, 2)
    parent = _checkout(tmp_path / "parent", 6, 1)
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((pathlib.Path(cwd).name, cmd))
        if "pytest" in cmd:
            out = "...\n7 passed in 1.50s\n"
        else:
            seed = int(cmd[cmd.index("--seed") + 1])
            out = "noise\n" + _result_line(
                seed / 10 if pathlib.Path(cwd).name == "change" else seed)
        return subprocess.CompletedProcess(cmd, 0, out, "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--root", str(change), "--against", str(parent),
                       "--out", str(out)]) == 0
    runs = [(side, cmd) for side, cmd in calls if "pytest" not in cmd]
    # the first side alternates from pair to pair; the workloads, command
    # and run length are BENCHMARK.json's
    assert [side for side, _ in runs[::2]] == ["change", "parent"] * 5
    assert [cmd[cmd.index("--workload") + 1] for _, cmd in runs[::2]] == [
        "oracle", "gd50"] * 5
    assert len(runs) == 20
    assert all(cmd[:2] == ["python3", "perfbench/run.py"]
               and cmd[cmd.index("--trace") + 1] == "0"
               and cmd[cmd.index("--seconds") + 1] == "2"
               for _, cmd in runs)
    data = json.loads(out.read_text())
    assert data["seconds"] == 2
    assert data["change"]["workloads"]["oracle"]["median"]["wall_s"] == 0.3
    assert data["parent"]["workloads"]["gd50"]["median"]["wall_s"] == 3
    assert data["parent"]["workloads"]["gd50"]["seeds"] == [1, 2, 3, 4, 5]
    assert data["change"]["line_counts"] == {
        "src": {"lines": 6, "code": 4}, "tests": {"lines": 3, "code": 2}}
    assert data["parent"]["line_counts"]["src"] == {"lines": 8, "code": 6}
    assert data["change"]["suite"] == {"passed": 7, "time_s": 1.5, "exit": 0}


def test_a_failed_perfbench_run_stops_the_script(tmp_path, monkeypatch):
    root = _checkout(tmp_path / "change", 1, 1)
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, cwd, **kw:
                        subprocess.CompletedProcess(cmd, 1, "", "boom"))
    with pytest.raises(SystemExit, match="boom"):
        bench.main(["--root", str(root), "--against", str(root),
                    "--out", str(tmp_path / "B.json")])
    assert not (tmp_path / "B.json").exists()
