"""The README's library examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs(capsys):
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    converged_at, total, stability = capsys.readouterr().out.split()
    assert converged_at != "None"
    assert float(total) > 0
    assert stability == "asymptotically_stable"


def test_custom_risk_block_runs(capsys):
    text = README.read_text()
    section = text.split("### Custom risks (library only)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    converged_at, low, high = capsys.readouterr().out.split()
    assert converged_at != "None"
    # each learner settles on its own subpopulation's optimum
    assert abs(float(low)) <= 1e-6 and abs(float(high) - 3.0) <= 1e-6
