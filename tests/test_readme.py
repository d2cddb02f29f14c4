"""The README's Python quick start and command-line block run as written
against src/, and its `--config` key list is the config's field list."""

import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

from gaze3d import ExperimentConfig
from gaze3d.cli import main

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


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    """Each command of the README's command-line block exits 0, run in
    order through gaze3d.cli.main (a small two-depth experiment.json for
    the sweep)."""
    section = README.read_text(encoding="utf-8").split(
        "## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert [c[:2] for c in commands] == [
        ["gaze3d", name] for name in ("simulate", "fit", "evaluate", "sweep",
                                      "selftest")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.json").write_text(json.dumps(
        {"depths": [1.0, 2.0], "seed": 7}), encoding="utf-8")
    for command in commands:
        assert main(command[1:]) == 0, (command, capsys.readouterr().err)
    for out in ("data.jsonl", "model.json", "sweep.csv"):
        assert (tmp_path / out).stat().st_size > 0


def test_readme_config_keys_are_the_config_fields():
    """The `--config` key list names every ExperimentConfig field, in
    order; noise_* stands for the noise fields."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"`--config` takes a JSON object with the fields of "
                       r"`gaze3d\.ExperimentConfig` \(([^)]*)\)",
                       text).group(1).split(", ")
    names = [f.name for f in fields(ExperimentConfig)]
    noise = [name for name in names if name.startswith("noise_")]
    expanded = [key for item in listed
                for key in (noise if item == "noise_*" else [item])]
    assert expanded == names
