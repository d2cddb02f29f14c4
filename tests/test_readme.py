"""The README's Python quick start runs as written against src/."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split(
        "## Quick start (Python)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
    lines = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("mapper,k,calib_subset,test_depth_m,n_targets,"
                        "mean_error_deg,std_error_deg,status")
    assert len(lines) == 1 + 3 * 31 * 5    # mappers x subsets x test depths
