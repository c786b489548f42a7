"""Benchmark of loxo, one workload per process.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  The workload's inputs are built from
--seed; whole passes over them are timed, one operation at a time, as
many as fit in --seconds; every output is checked (see workloads.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics:

- setup_s: median over eleven fresh processes of the time to import
  loxo, load the groups and build the inputs: this process, and five
  ``--setup-only`` children before the timed passes and five after them;
- ops_per_s: operations per wall second of the median pass;
- op_s.p50 and op_s.tail: median and 90th percentile of the wall time of
  one operation;
- peak_rss_mb: peak resident memory of this process at the end of the
  timed passes, before the exact oracles run.

--trace 1 runs one pass in which each operation runs once untraced and
once with spans and counters (see tracing.py), and reports the per-layer
metrics of the traced runs.  Spans
and counters are written to perfbench/runs/.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# --setup-only children run before and again after the timed passes, so
# that setup_s spans the run as the other metrics do
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verdict", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    return parser.parse_args(argv)


def import_paths():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "loxo", "__init__.py")):
        raise SystemExit("perfbench: no loxo sources under %s" % src)
    sys.path[:0] = [HERE, src]


def timed_setup(workload, seed):
    import workloads

    start = time.perf_counter()
    loxo, cases = workloads.setup(workload, seed)
    elapsed = time.perf_counter() - start
    if not os.path.dirname(loxo.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: imported loxo from %s" % loxo.__file__)
    return elapsed, loxo, cases


def probe_setups(args):
    """Set-up times of fresh processes, as a first call from a shell pays them."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.pending = []

    def wrong(self, case, reason):
        self.correct = False
        print("perfbench: wrong output from %s: %s" % (type(case).__name__, reason),
              file=sys.stderr)


def run_pass(cases, tally, tracer=None):
    """Time one pass; return its per-operation wall times."""
    import workloads

    times = []
    for case in cases:
        tally.attempted += 1
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = case.run()
        except Exception:  # an exception is a wrong output too
            times.append(time.perf_counter() - start)
            tally.failed += 1
            tally.wrong(case, traceback.format_exc())
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        times.append(time.perf_counter() - start)
        try:
            record = case.inspect(result)
        except workloads.CheckFailed as exc:
            tally.wrong(case, exc)
            continue
        del result
        if record == workloads.KNOWN_FAULT:
            tally.failed += 1
        elif record is not None:
            tally.pending.append((case, record))
    gc.collect()
    return times


def verify(tally):
    """Check the kept records against the exact oracles."""
    import oracles
    import workloads

    balls = {}

    def exact(name, length):
        if (name, length) not in balls:
            gens = workloads.GROUPS[name][1]
            balls[name, length] = oracles.ExactBall(gens, ["a", "b"], length)
        return balls[name, length]

    checked = set()
    for case, record in tally.pending:
        key = (id(case), json.dumps(record, sort_keys=True))
        if key in checked:
            continue
        checked.add(key)
        try:
            case.verify(record, exact)
        except workloads.CheckFailed as exc:
            tally.wrong(case, exc)


def measure(args, cases, tally):
    """Whole passes; a new one starts only if a median pass still fits.

    The first pass always runs, so a run ends within args.seconds unless
    one pass takes longer.  Returns the wall time of every operation and,
    per pass, the summed wall time of its operations (checks between
    operations are not counted).
    """
    op_times, pass_times, pass_walls = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        times = run_pass(cases, tally)
        pass_walls.append(time.perf_counter() - pass_start)
        op_times.extend(times)
        pass_times.append(sum(times))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_walls) > args.seconds:
            return op_times, pass_times


def end_to_end(args, tally):
    setups = probe_setups(args)
    setup, loxo, cases = timed_setup(args.workload, args.seed)
    setups.append(setup)
    import oracles  # noqa: F401  (loaded before timing, as in every run)

    gc.collect()
    gc.freeze()
    op_times, pass_times = measure(args, cases, tally)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups.extend(probe_setups(args))
    verify(tally)
    # each pass lists its operations once, so ops per pass = len(cases)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(cases) / statistics.median(pass_times), "1/s"),
        "op_s.p50": (statistics.median(op_times), "s"),
        "op_s.tail": (statistics.quantiles(op_times, n=10)[-1], "s"),
        "peak_rss_mb": (peak, "MB"),
    }, len(op_times), len(pass_times)


def per_layer(args, tally):
    """One pass, each operation run untraced and then traced."""
    import tracing
    import workloads

    _, loxo, cases = timed_setup(args.workload, args.seed)
    import oracles  # noqa: F401

    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    workloads.load_groups(loxo)
    tracer.active = False
    tracer.uninstall()
    gc.collect()
    gc.freeze()
    untraced = traced = 0.0
    for case in cases:
        untraced += sum(run_pass([case], tally))
        tracer.install()
        try:
            traced += sum(run_pass([case], tally, tracer))
        finally:
            tracer.uninstall()
    verify(tally)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    out_dir = os.path.join(HERE, "runs")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(
        out_dir, "trace-%s-seed%d.npz" % (args.workload, args.seed)))
    return metrics, 2 * len(cases), 2


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    # numpy must not start worker threads: each workload runs single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_paths()
    if args.setup_only:
        print(timed_setup(args.workload, args.seed)[0])
        return 0
    tally = Tally()
    if args.trace:
        metrics, ops, passes = per_layer(args, tally)
    else:
        metrics, ops, passes = end_to_end(args, tally)
    print("perfbench: %s seed %d: %d operations in %d passes, %d failed"
          % (args.workload, args.seed, ops, passes, tally.failed))
    for name, (value, unit) in metrics.items():
        print("  %-42s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
