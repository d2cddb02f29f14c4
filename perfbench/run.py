"""gaze3d benchmark: depth sweeps and the CLI round trip, end to end and
per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from a source checkout; gaze3d is imported from its `src/`.  Each
workload runs closed loop, one operation at a time, for --seconds (and
at least once per input), and every operation's output is checked.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics:

  setup_s        median over fresh processes of the time from process
                 start until the workload's inputs are ready
  wall_s         time of one operation (one sweep, or one round trip):
                 the median over passes of the mean operation time in a
                 pass, where a pass runs each input once; the sample
                 count is printed beside it
  peak_rss_mb    peak resident memory of the measuring process
  ok_frac        operations that passed every check / attempted; the
                 failed fraction is 1 - ok_frac, printed as failed_frac
  err_*_deg      mean of the per-record mean angular errors over the ok
                 records, per mapper group, averaged over the inputs

With --trace 1 the untraced loop runs as above and then two traced runs
of the workload, each in a process of its own, set up and run one
operation on the first input; the last line carries the per-layer
metrics of tracing.PER_LAYER.  The two traced runs must count exactly
the same work.  --smoke shrinks the inputs for the benchmark's own tests.

Human-readable lines, the environment and failed checks (by name) are
printed before the last line.  `--workload all` runs the three workloads
one after the other in this process and prefixes each metric with its
workload.
"""

import os

# Pinned before numpy loads, here and in every child process: one BLAS
# thread removes a source of scheduler noise on a small machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("display-sweep", "noisy-sweep", "cli-roundtrip")
SETUP_PROBES = 5
# Errors this far below the acceptance thresholds are the solver's
# tolerance floor (3d3d on noiseless data reads ~5e-8 deg); they are
# reported at this floor so that numerical noise there is not a change.
ERR_FLOOR_DEG = 1e-4


def import_gaze3d():
    """Import gaze3d from this checkout's src/, or exit nonzero."""
    if not (SRC / "gaze3d" / "__init__.py").is_file():
        sys.exit(f"error: no gaze3d sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaze3d
    if Path(gaze3d.__file__).resolve().parent != SRC / "gaze3d":
        sys.exit(f"error: imported gaze3d from {gaze3d.__file__}, "
                 f"not from {SRC}")
    return gaze3d


def git_sha():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(gaze3d, seed):
    import numpy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "gaze3d_backend": gaze3d.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def child_command(name, args, flag):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), flag]
    return cmd + (["--smoke"] if args.smoke else [])


def run_checked(workload, item):
    """One timed operation, then its checks (untimed):
    (seconds, errors, failures, signature)."""
    start = time.perf_counter()
    try:
        output = workload.run(item)
    except Exception as err:  # noqa: BLE001 - counted as a failed operation
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, None, [f"exception_{type(err).__name__}"], None
    elapsed = time.perf_counter() - start
    errors, failures, signature = workload.check(item, output)
    return elapsed, errors, failures, signature


def measure(workload, inputs, seconds):
    """Closed loop of whole passes over the inputs (each input once, in
    order) for at least `seconds`.  Rerunning an input must reproduce its
    output.  Returns the seconds of every operation in run order, the
    errors of each input, and the failures."""
    ops = []
    first = [None] * len(inputs)
    failures = Counter()
    failed = 0
    start = time.perf_counter()
    while len(ops) % len(inputs) or not ops \
            or time.perf_counter() - start < seconds:
        k = len(ops) % len(inputs)
        elapsed, errors, names, signature = run_checked(workload, inputs[k])
        ops.append(elapsed)
        if errors is not None:
            if first[k] is None:
                first[k] = (errors, signature)
            elif signature != first[k][1]:
                names = names + ["nondeterministic_output"]
        if names:
            failed += 1
            failures.update(names)
    return ops, [f[0] for f in first if f is not None], failed, failures


def per_pass_median(ops, n_inputs):
    """Median over passes of the mean operation time in the pass."""
    return statistics.median(statistics.fmean(ops[i:i + n_inputs])
                             for i in range(0, len(ops), n_inputs))


def setup_seconds(name, args):
    """Median over fresh processes of process start -> inputs ready."""
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(child_command(name, args, "--setup-probe"),
                                stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.readline().strip() == "ready"
        samples.append(time.perf_counter() - start)
        proc.communicate()
        if not ready or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed")
    return statistics.median(samples)


def traced_run(name, args):
    """Snapshot of one traced child process, or None if it failed."""
    proc = subprocess.run(child_command(name, args, "--traced-child"),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def end_to_end(errors, ops, n_inputs, failed, setup):
    from workloads import ERROR_METRICS
    metrics = {"setup_s": (setup, "s"),
               "wall_s": (per_pass_median(ops, n_inputs), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024.0, "MB"),
               "ok_frac": ((len(ops) - failed) / len(ops), "frac")}
    for metric in ERROR_METRICS:
        values = [e[metric] for e in errors]
        mean = statistics.fmean(values) if values else float("nan")
        metrics[metric] = (max(mean, ERR_FLOOR_DEG) if mean == mean else None,
                           "deg")
    return metrics


def per_layer(name, args, ops, n_inputs, failures):
    """(metrics, attempted, failed) of the two traced runs."""
    from tracing import PER_LAYER, layer_values, repeat_counts
    units = dict(PER_LAYER)
    runs = [traced_run(name, args) for _ in range(2)]
    failed = 0
    for run in runs:
        names = ["traced_run"] if run is None else run["failures"]
        failures.update(names)
        failed += bool(names)
    if None in runs:
        return {m: (0, unit) for m, unit in units.items()}, len(runs), failed
    values = layer_values(runs[0]["trace"])
    # Traced against untraced time of operations on the first input; the
    # traced runs follow the untraced loop directly.
    traced = statistics.fmean(run["op_seconds"] for run in runs)
    values["trace.overhead_frac"] = (
        traced / statistics.median(ops[::n_inputs]) - 1.0)
    same = repeat_counts(runs[0]["trace"]) == repeat_counts(runs[1]["trace"])
    values["trace.counts_repeat"] = int(same)
    if not same:
        failures["trace_counts_differ"] += 1
        failed = max(failed, 1)
    return {m: (values[m], unit) for m, unit in units.items()}, len(runs), \
        failed


def run_workload(name, args):
    """(metrics, attempted, failed) of one workload."""
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    inputs = workload.setup(args.seed, args.smoke)
    try:
        ops, errors, failed, failures = measure(workload, inputs, args.seconds)
    finally:
        if workload.cleanup is not None:
            workload.cleanup(inputs)
    attempted = len(ops)
    print(f"[{name}] {attempted} operations over {len(inputs)} input(s); "
          f"failed_frac = {failed / attempted:.4g} ({failed}/{attempted})")
    if args.trace:
        metrics, extra_attempted, extra_failed = per_layer(
            name, args, ops, len(inputs), failures)
        attempted += extra_attempted
        failed += extra_failed
    else:
        setup = setup_seconds(name, args)
        metrics = end_to_end(errors, ops, len(inputs), failed, setup)
        print(f"[{name}] wall_s: median over {attempted // len(inputs)} "
              f"pass(es) of {len(inputs)} operation(s); setup_s: median of "
              f"{1 if args.smoke else SETUP_PROBES} process(es)")
        for e in errors:
            print(f"[{name}] errors per input (deg): "
                  + ", ".join(f"{k}={v:.6g}" for k, v in e.items()))
    for metric, (value, unit) in metrics.items():
        print(f"[{name}] {metric} = {value} {unit}")
    for check, count in sorted(failures.items()):
        print(f"[{name}] FAILED {check} x{count}")
    return metrics, attempted, failed


def setup_probe(name, args):
    import_gaze3d()
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    inputs = workload.setup(args.seed, args.smoke)
    print("ready", flush=True)
    if workload.cleanup is not None:
        workload.cleanup(inputs)


def traced_child(name, args):
    import_gaze3d()
    from tracing import Tracer, install
    tracer = Tracer()
    install(tracer)
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    inputs = workload.setup(args.seed, args.smoke)
    try:
        elapsed, _, failures, _ = run_checked(workload, inputs[0])
    finally:
        if workload.cleanup is not None:
            workload.cleanup(inputs)
    print(json.dumps({"trace": tracer.snapshot(), "op_seconds": elapsed,
                      "failures": failures}))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced-child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args)
    if args.traced_child:
        return traced_child(args.workload, args)
    gaze3d = import_gaze3d()
    print("env: " + json.dumps(environment(gaze3d, args.seed)))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    all_metrics = {}
    for name in names:
        metrics, attempted, failed = run_workload(name, args)
        total_attempted += attempted
        total_failed += failed
        prefix = f"{name}/" if len(names) > 1 else ""
        all_metrics.update({prefix + m: {"value": v, "unit": u}
                            for m, (v, u) in metrics.items()})
    correct = total_failed == 0 and all(
        m["value"] is not None for m in all_metrics.values())
    print(json.dumps({"correct": correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": all_metrics}))


if __name__ == "__main__":
    main()
