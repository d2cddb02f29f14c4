"""Each kind of value an experiment reads from outside has one rule and
one wording, whichever entry point reads it: a count
(geometry.check_integer), a mapper-id list (mappers.check_mappers), a
depth list (eye_simulator.check_depths) and a config section
(dataset_io._section).  Every row passes one bad value through one entry
point (the Python type or function, a config file, a CLI flag, a model
file) and compares the whole error line, as the CLI prints it."""

import json

import pytest

from gaze3d import cli
from gaze3d.dataset_io import ExperimentConfig, load_config, load_model
from gaze3d.evaluation import depth_combination_sweep
from gaze3d.eye_simulator import (GridSpec, SimRig, TwoSphereEye,
                                  check_depths, synthesize_dataset)
from gaze3d.mappers import check_mappers
from gaze3d.optimizer import LMSettings

SEED = "seed must be an integer >= 0, got -1"
GRID = "calib_rows must be an integer from 2 to 1000, got 1"
CAP = "max_iterations must be an integer >= 1, got True"
K = "k_range entry must be an integer from 1 to 2, got 3"
MAPPER = "unknown mapper 'xyz' (choose from 2d2d, 2d3d, 3d3d)"
NO_MAPPERS = "mappers must be a nonempty list of mapper ids, got []"
TWICE = "mappers contains duplicates"
REPEATED = "depths contains duplicates"
DEPTHS = "depths must be a nonempty list of finite positive meters, got "
ANGLE = "must be 3 finite numbers in [-pi, pi], got "
CAMERA = {"principal": [320, 180], "resolution": [640, 360]}
TURNED = {**CAMERA, "focal": [600, 600], "rotation_angles": [0, 4.0, 0]}


def two_depths():
    return synthesize_dataset(SimRig(), TwoSphereEye(), depths=(1.0, 2.0))


def python(call):
    return ("python", call)


def config(doc):
    return ("config", doc)


def flags(*argv, config=None):
    return ("cli", (argv, config))


CASES = [
    # a count
    ("seed", python(lambda: ExperimentConfig(seed=-1)), "ConfigError", SEED),
    ("seed", config({"seed": -1}), "ConfigError", SEED),
    ("seed", flags("simulate", "--seed", "-1"), "ConfigError", SEED),
    ("grid", python(lambda: GridSpec(calib_rows=1)), "ValueError", GRID),
    ("grid", config({"grid": {"calib_rows": 1}}), "ConfigError",
     "invalid grid: " + GRID),
    ("grid", flags("simulate", config={"grid": {"calib_rows": 1}}),
     "ConfigError", "invalid grid: " + GRID),
    ("cap", python(lambda: LMSettings(max_iterations=True)), "ValueError",
     CAP),
    ("cap", config({"lm": {"max_iterations": True}}), "ConfigError",
     "invalid lm: " + CAP),
    ("cap", flags("sweep", config={"lm": {"max_iterations": True}}),
     "ConfigError", "invalid lm: " + CAP),
    ("k", python(lambda: depth_combination_sweep(two_depths(),
                                                 k_range=(1, 3))),
     "ValueError", K),
    # a mapper-id list
    ("mappers-rule", python(lambda: check_mappers(["2d3d", "xyz"])),
     "ValueError", MAPPER),
    ("mappers-type", python(lambda: ExperimentConfig(mappers=("xyz",))),
     "ConfigError", MAPPER),
    ("mappers-sweep", python(lambda: depth_combination_sweep(
        two_depths(), mappers=("2d3d", "xyz"))), "ValueError", MAPPER),
    ("mappers", config({"mappers": ["xyz"]}), "ConfigError", MAPPER),
    ("mappers", flags("sweep", "--mappers", "2d3d,xyz"), "CliUsageError",
     "argument --mappers: " + MAPPER),
    ("mappers", ("model", {"format": "gaze3d-model/1", "mapper": "xyz"}),
     "ParseError", MAPPER),
    ("no-mappers", python(lambda: check_mappers([])), "ValueError",
     NO_MAPPERS),
    ("no-mappers", config({"mappers": []}), "ConfigError", NO_MAPPERS),
    ("no-mappers", flags("sweep", "--mappers", ","), "CliUsageError",
     "argument --mappers: " + NO_MAPPERS),
    ("repeated-mappers", python(lambda: check_mappers(["2d2d", "2d2d"])),
     "ValueError", TWICE),
    ("repeated-mappers", config({"mappers": ["2d2d", "2d2d"]}),
     "ConfigError", TWICE),
    ("repeated-mappers", flags("sweep", "--mappers", "2d2d,2d2d"),
     "CliUsageError", "argument --mappers: " + TWICE),
    # a depth list
    ("depths-rule", python(lambda: check_depths([1.0, 1.0, 2.0])),
     "ValueError", REPEATED),
    ("depths-synthesis", python(lambda: synthesize_dataset(
        SimRig(), TwoSphereEye(), depths=(1.0, 1.0, 2.0))), "ValueError",
     REPEATED),
    ("depths-type", python(lambda: ExperimentConfig(depths=(1.0, 1.0))),
     "ConfigError", REPEATED),
    ("depths", config({"depths": [1.0, 1.0]}), "ConfigError", REPEATED),
    ("depths", flags("simulate", "--depths", "1.0,1.0"), "ConfigError",
     REPEATED),
    ("depth", python(lambda: synthesize_dataset(
        SimRig(), TwoSphereEye(), depths=[1.0, -2.0])), "ValueError",
     DEPTHS + "[1.0, -2.0]"),
    ("depth", config({"depths": [1.0, -2.0]}), "ConfigError",
     DEPTHS + "[1.0, -2.0]"),
    ("depth", flags("sweep", "--depths", "1.0,-2.0"), "ConfigError",
     DEPTHS + "(1.0, -2.0)"),
    # a config section
    ("unknown-key", python(lambda: ExperimentConfig(
        lm={"damping_upp": 10})), "ConfigError",
     "unknown config key lm.'damping_upp'"),
    ("unknown-key", config({"lm": {"damping_upp": 10}}), "ConfigError",
     "unknown config key lm.'damping_upp'"),
    ("unknown-key", flags("sweep", config={"lm": {"damping_upp": 10}}),
     "ConfigError", "unknown config key lm.'damping_upp'"),
    ("not-object", config({"grid": [5, 5]}), "ConfigError",
     "grid must be an object"),
    ("build", config({"eye_model_mm": {"eyeball_radius_mm": -1}}),
     "ConfigError", "invalid eye_model_mm: eyeball_radius_mm must be a "
     "finite number > 0, got -1"),
    ("camera", flags("simulate", config={"eye_camera": CAMERA}),
     "ConfigError", "invalid eye_camera: focal must be 2 finite numbers "
     "> 0, got None"),
    # an angle: a config camera's rotation_angles and a model file's
    # angles_rad
    ("angle", python(lambda: ExperimentConfig(eye_camera=TURNED)),
     "ConfigError", "invalid eye_camera: rotation_angles " + ANGLE
     + "[0, 4.0, 0]"),
    ("angle", config({"eye_camera": TURNED}), "ConfigError",
     "invalid eye_camera: rotation_angles " + ANGLE + "[0, 4.0, 0]"),
    ("angle", flags("simulate", config={"eye_camera": TURNED}),
     "ConfigError", "invalid eye_camera: rotation_angles " + ANGLE
     + "[0, 4.0, 0]"),
    ("angle", ("model", {"format": "gaze3d-model/1", "mapper": "3d3d",
                         "angles_rad": [0, 4.0, 0], "center_m": [0, 0, 0]}),
     "ParseError", "model field 'angles_rad' " + ANGLE + "[0, 4.0, 0]"),
    ("top-key", config({"sed": 4}), "ConfigError",
     "unknown config key 'sed'"),
    ("top-object", config([4]), "ConfigError", "config must be an object"),
]


def error_line(kind, payload, tmp_path, capsys):
    """The error line the entry point gives for its bad value, as the
    CLI prints it: "error: <ErrorType>: <message>"."""
    if kind == "cli":
        argv, doc = payload
        out = tmp_path / "out"
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            argv += ("--config", tmp_path / "cfg.json")
        code = cli.main([str(a) for a in argv + ("--out", out)])
        assert code == 1 and not out.exists()
        return capsys.readouterr().err
    try:
        if kind == "python":
            payload()
        else:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(payload))
            (load_config if kind == "config" else load_model)(path)
    except Exception as err:  # noqa: BLE001 - the line names its type
        return f"error: {type(err).__name__}: {err}\n"
    pytest.fail("the bad value was accepted")


@pytest.mark.parametrize(
    "entry, error, message", [case[1:] for case in CASES],
    ids=[f"{value}-{entry[0]}" for value, entry, *_ in CASES])
def test_each_rule_has_one_wording_at_every_entry_point(entry, error,
                                                        message, tmp_path,
                                                        capsys):
    assert (error_line(*entry, tmp_path, capsys)
            == f"error: {error}: {message}\n")
