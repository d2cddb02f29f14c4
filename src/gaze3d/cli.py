"""Command-line interface.

Commands::

    gaze3d simulate  [--config C] [--seed N] [--depths L] [--noise-*] --out data.jsonl
    gaze3d fit       DATASET --mappers 2d3d [--depths L] [--config C] --out model.json
    gaze3d evaluate  MODEL DATASET [--depths L] [--out results.csv]
    gaze3d sweep     [--config C] [--seed N] [--mappers L] [--depths L] [--noise-*] --out sweep.csv
    gaze3d selftest

Flags override the config file, which overrides built-in defaults.  All
randomness is seeded, so reruns with the same inputs write byte-identical
outputs.  On failure the exit status is nonzero and stderr carries a
single line ``error: <ErrorType>: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .dataset_io import (
    ExperimentConfig,
    export_results_csv,
    load_config,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from .evaluation import depth_combination_sweep, evaluate
from .eye_simulator import SampleColumns
from .mappers import (MAPPER_FIELDS, MAPPER_IDS, check_mappers, fit_mapper,
                      usable_rows)
from .optimizer import solve_lm


class CliUsageError(ValueError):
    """Bad command line."""


class _Parser(argparse.ArgumentParser):
    # argparse normally prints usage and exits; route through the single
    # line error contract instead.
    def error(self, message):
        raise CliUsageError(message)


# The flag parsers raise ArgumentTypeError, whose text argparse reports
# as it is; for a ValueError it reports only the parser's name.

def _parse_depths(text):
    try:
        depths = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad depth list {text!r}") from None
    if not depths:
        raise argparse.ArgumentTypeError("empty depth list")
    return depths


def _parse_mappers(text):
    try:
        return check_mappers([tok.strip() for tok in text.split(",")
                              if tok.strip()])
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_flags(sp, *flags):
    if "config" in flags:
        sp.add_argument("--config", metavar="PATH",
                        help="JSON ExperimentConfig file")
    if "seed" in flags:
        sp.add_argument("--seed", type=int, metavar="N")
    if "out" in flags:
        sp.add_argument("--out", metavar="PATH")
    if "mappers" in flags:
        sp.add_argument("--mappers", type=_parse_mappers, metavar="LIST",
                        help="comma list from: " + ",".join(MAPPER_IDS))
    if "depths" in flags:
        sp.add_argument("--depths", type=_parse_depths, metavar="LIST",
                        help="comma list of depths in meters")
    if "noise" in flags:
        sp.add_argument("--noise-px", dest="noise_pupil_px", type=float,
                        metavar="F", help="pupil detection noise, pixels")
        sp.add_argument("--noise-deg", dest="noise_pose_deg", type=float,
                        metavar="F", help="pupil pose noise, degrees")
        sp.add_argument("--noise-target-mm", type=float, metavar="F",
                        help="target noise, mm")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls."""
    parser = _Parser(prog="gaze3d",
                     description="gaze mapping simulation and evaluation")
    parser.add_argument("--version", action="version",
                        version=f"gaze3d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("simulate", help="synthesize a dataset file")
    _add_flags(p, "config", "seed", "out", "depths", "noise")

    p = sub.add_parser("fit", help="fit one mapper on a dataset")
    p.add_argument("dataset", metavar="DATASET")
    _add_flags(p, "config", "out", "mappers", "depths")

    p = sub.add_parser("evaluate", help="evaluate a saved model on test sets")
    p.add_argument("model", metavar="MODEL")
    p.add_argument("dataset", metavar="DATASET")
    _add_flags(p, "depths", "out")

    p = sub.add_parser("sweep",
                       help="full depth-combination sweep, exported as CSV")
    _add_flags(p, "config", "seed", "out", "mappers", "depths", "noise")

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def _config_from(args) -> ExperimentConfig:
    """The config file (or the defaults), overridden by each flag given:
    a flag's dest is the ExperimentConfig field it sets."""
    cfg = load_config(args.config) if getattr(args, "config", None) \
        else ExperimentConfig()
    return cfg.override(**{f.name: getattr(args, f.name, None)
                           for f in fields(ExperimentConfig)})


def _count(groups) -> int:
    return sum(map(len, groups.values()))


def cmd_simulate(args) -> int:
    cfg = _config_from(args)
    out = cfg.out or "dataset.jsonl"
    bundle = cfg.build_bundle()
    save_dataset(bundle, out)
    print(f"wrote {out}: {_count(bundle.calibration)} calibration + "
          f"{_count(bundle.test)} test records over "
          f"{len(bundle.depths())} depths")
    return 0


def cmd_fit(args) -> int:
    cfg = _config_from(args)
    if len(cfg.mappers) != 1:
        raise CliUsageError("fit needs exactly one mapper, e.g. "
                            "--mappers 2d3d")
    mapper = cfg.mappers[0]
    bundle = load_dataset(args.dataset, require_calibration=True).bundle
    depths = args.depths or bundle.depths()
    calibration = bundle.calibration
    for depth in depths:
        if depth not in calibration:
            raise CliUsageError(f"depth {depth} has no calibration records")
    pooled = SampleColumns.concatenate([calibration[d] for d in depths])
    n_usable = int(usable_rows(mapper, pooled).sum())
    n_dropped = len(pooled) - n_usable
    if n_dropped:
        missing = [f for f in MAPPER_FIELDS[mapper]
                   if not pooled.present(f).all()]
        print(f"warning: {n_dropped} calibration records lack "
              f"{' or '.join(missing)} and are excluded from {mapper} "
              "fitting", file=sys.stderr)
    if not n_usable:
        raise CliUsageError(f"no usable calibration samples for {mapper}")
    mapping_cfg = cfg.to_mapping_config(bundle.rig.eye_camera.resolution)
    model = fit_mapper(mapper, pooled, mapping_cfg)
    out = cfg.out or "model.json"
    save_model(model, out)
    print(f"wrote {out}: {mapper} fitted on {n_usable} samples")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    loaded = load_dataset(args.dataset)
    reference = (loaded.bundle.rig.e_gt if loaded.source == "simulated"
                 else np.zeros(3))
    tests = loaded.bundle.test
    depths = (ExperimentConfig(depths=args.depths).depths if args.depths
              else tuple(sorted(tests)))
    if not depths:
        raise CliUsageError("dataset has no test records")
    field = MAPPER_FIELDS[model.mapper_id][0]
    records = []
    for depth in depths:
        if depth not in tests:
            raise CliUsageError(f"depth {depth} has no test records")
        n_usable = int(usable_rows(model.mapper_id, tests[depth],
                                   fitting=False).sum())
        n_dropped = len(tests[depth]) - n_usable
        if n_dropped:
            print(f"warning: depth {depth}: {n_dropped} records lack "
                  f"{field}", file=sys.stderr)
        if not n_usable:
            raise CliUsageError(f"depth {depth} has no usable test records")
        records.append(evaluate(model, tests[depth], reference,
                                loaded.bundle.rig.scene_camera,
                                test_depth=depth))
    ref_name = "e_gt" if loaded.source == "simulated" else "scene_origin"
    for r in records:
        print(f"mapper={r.mapper} test_depth_m={r.test_depth} "
              f"n={r.n_targets} mean_deg={r.mean:.6f} std_deg={r.std:.6f} "
              f"reference={ref_name}")
    if args.out:
        lines = ["test_depth_m,n_targets,mean_error_deg,std_error_deg"]
        lines += [f"{repr(float(r.test_depth))},{r.n_targets},"
                  f"{repr(r.mean)},{repr(r.std)}" for r in records]
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from(args)
    bundle = cfg.build_bundle()
    sweep = depth_combination_sweep(
        bundle, cfg.mappers,
        config=cfg.to_mapping_config(bundle.rig.eye_camera.resolution))
    out = cfg.out or "sweep.csv"
    export_results_csv(sweep, out)
    n_failed = len([r for r in sweep.records if r.status != "ok"])
    print(f"wrote {out}: {len(sweep.records)} rows "
          f"({n_failed} failed rows)")
    for mapper in cfg.mappers:
        means = sweep.mean_by_k(mapper)
        summary = " ".join(
            f"k={k}:{means[k]:.4f}" if k in means else f"k={k}:failed"
            for k in sorted({r.k for r in sweep.select(mapper)}))
        print(f"{mapper} mean_deg by depth count: {summary}")
    return 0


def cmd_selftest(args) -> int:
    # Small end-to-end invariant suite; every check is seeded and fast.
    import tempfile
    from pathlib import Path

    from .eye_simulator import (SimRig, TwoSphereEye, derive_pupil_geometry,
                                synthesize_dataset)
    from .geometry import (angles_from_rotation, back_project, project,
                           rotation_from_angles)
    from .mappers import fit_2d_to_2d, poly_features
    from .optimizer import ResidualProblem

    def check(name, ok, detail=""):
        if not ok:
            raise RuntimeError(f"selftest check failed: {name} {detail}")
        print(f"ok {name}")

    offset, radius = derive_pupil_geometry(TwoSphereEye())
    check("pupil-geometry", abs(offset - 9.9468) < 1e-3
          and abs(radius - 5.7716) < 1e-3)

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        angles = rng.uniform(-np.pi, np.pi, 3)
        R = rotation_from_angles(angles)
        R2 = rotation_from_angles(angles_from_rotation(R))
        worst = max(worst, float(np.abs(R - R2).max()))
    check("rotation-roundtrip", worst < 1e-9, f"worst={worst:.3g}")

    rig = SimRig()
    cam = rig.scene_camera
    ok = True
    for _ in range(50):
        point = rng.normal(0, 0.1, 3) + (0, 0, 1.5)
        ray = back_project(cam, project(cam, point))
        ok &= np.abs(ray.at(point[2] / ray.direction[2]) - point).max() < 1e-9
    check("project-backproject", ok)

    check("poly-features",
          np.allclose(poly_features(np.array([1.0, 2.0])),
                      [1, 1, 2, 2, 1, 4, 4]))

    problem = ResidualProblem(
        dim=1, residual=lambda x: np.array([x[0] - 3.0]))
    report = solve_lm(problem, np.array([0.0]))
    check("lm-quadratic", abs(report.params[0] - 3.0) < 1e-8
          and report.cost < 1e-16)

    pupils = rng.uniform(0, (640, 360), size=(25, 2))
    w_true = rng.normal(0, 1, (7, 2))
    feats = poly_features((pupils - (320, 180)) / (320, 180))
    model = fit_2d_to_2d(list(zip(pupils, feats @ w_true)))
    check("planted-2d2d", np.abs(model.weights - w_true).max() < 1e-8)

    bundle = synthesize_dataset(rig, TwoSphereEye(), depths=(1.0, 2.0),
                                seed=11)
    sweep = depth_combination_sweep(bundle, ("2d3d", "3d3d"),
                                    k_range=(2,))
    ok_recs = [r for r in sweep.records if r.status == "ok"]
    check("mini-sweep", len(ok_recs) == len(sweep.records) == 4
          and all(r.mean < 0.5 for r in ok_recs))

    def column_bits(bundle):     # every column the CLI fits from, as bytes
        return [(role, depth, *(getattr(columns, f.name).tobytes()
                                for f in fields(columns)))
                for role, groups in (("calibration", bundle.calibration),
                                     ("test", bundle.test))
                for depth, columns in groups.items()]

    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
        save_dataset(bundle, a)
        save_dataset(synthesize_dataset(rig, TwoSphereEye(),
                                        depths=(1.0, 2.0), seed=11), b)
        a_cols, b_cols = (Path(f"{path}.cols") for path in (a, b))
        same = (a.read_bytes() == b.read_bytes()
                and a_cols.read_bytes() == b_cols.read_bytes())
        loaded = load_dataset(a)            # from its sidecar
        a_cols.unlink()
        parsed = load_dataset(a)
        check("dataset-determinism", same
              and loaded.n_records == parsed.n_records
              == _count(bundle.calibration) + _count(bundle.test)
              and loaded.missing_pose == parsed.missing_pose == 0
              and column_bits(loaded.bundle) == column_bits(parsed.bundle)
              == column_bits(bundle))

    print("selftest: all checks passed")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # looked up per call, so that a cmd_* replaced after the parser
        # was built (perfbench traces them) is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except Exception as err:  # noqa: BLE001 - CLI boundary
        message = " ".join(str(err).split()) or type(err).__name__
        print(f"error: {type(err).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
