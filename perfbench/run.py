"""Run one workload of the fdual benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an fdual checkout.  It runs the harness self-check
(selfcheck.py), then repetitions of the workload, each in a fresh
interpreter (rep.py) so no lru_cache table carries over, until the next one
would end after S seconds, and at least MIN_REPS of them.  Each item's
latency, set-up time, memory and per-layer metrics are medians over the
repetitions.  With --trace 1 the repetitions
alternate untraced and traced: the traced ones give the per-layer metrics,
and trace.overhead_s is the traced minus the untraced wall_s.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.  Exit code 2 means the benchmark cannot run here, 1 that
the harness itself failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
REP_TIMEOUT_S = 150
RUN_LIMIT_S = 150  # no repetition starts that could end later than this
WORKDIR = ".perfbench_work"


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def tail(values):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile); the maximum when there are 10 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def item_median(reps):
    """Each item's median latency over the repetitions, in item order.

    The host slows pure-Python code by up to 1.6x, in stretches of seconds
    to minutes (README.md).  Over the repetitions of a run the median
    follows the host's typical speed; the best depends on whether a brief
    fast stretch happened to come, and spread twice as much from run to
    run when measured."""
    return [statistics.median(column) for column in zip(*(rep["latencies_s"] for rep in reps))]


def end_to_end(reps):
    latencies = item_median(reps)
    wall_s = sum(latencies)
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "wall_s": wall_s,
        "items_per_s": len(latencies) / wall_s,
        "item_p50_ms": 1000.0 * statistics.median(latencies),
        "item_tail_ms": 1000.0 * tail(latencies)[0],
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def run_rep(args, env, workdir, traced):
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", args.workload,
           "--workdir", workdir]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"a repetition of {args.workload} ran longer than {REP_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"a repetition of {args.workload} exited with code {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("FDUAL_TASK_DELAY_MS"):
        fail("FDUAL_TASK_DELAY_MS is set; it delays every search task, refusing to run", 2)
    if not os.path.isfile(os.path.join("src", "fdual", "__init__.py")):
        fail("src/fdual not found: run from the root of an fdual checkout", 2)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env.pop("FD_THREADS", None)  # jobs are set by the workload, never by the environment
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    workdir = os.path.abspath(os.path.join(WORKDIR, args.workload))
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(gen.make_items(args.workload, args.seed), fh)

    check = subprocess.run([sys.executable, os.path.join(HERE, "selfcheck.py"), workdir], env=env,
                           capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if check.returncode != 0:
        sys.stderr.write(check.stdout + check.stderr)
        fail("harness self-check failed", 1)

    started = time.monotonic()
    plain, traced = [], []
    last = 0.0
    while True:
        elapsed = time.monotonic() - started
        reps = len(plain) + len(traced)
        if reps >= MIN_REPS and elapsed + last > args.seconds or elapsed + last > RUN_LIMIT_S:
            break
        is_traced = bool(args.trace) and reps % 2 == 1
        t0 = time.monotonic()
        (traced if is_traced else plain).append(run_rep(args, env, workdir, is_traced))
        last = time.monotonic() - t0

    if args.trace:
        layer_rows = [rep["layers"] for rep in traced]
        values = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
        values["trace.overhead_s"] = sum(item_median(traced)) - sum(item_median(plain))
        source = f"{len(traced)} traced and {len(plain)} untraced repetitions"
    else:
        values = end_to_end(plain)
        source = f"{len(plain)} repetitions"

    all_reps = plain + traced
    attempted = sum(rep["items"] for rep in all_reps)
    failed = sum(rep["failed"] for rep in all_reps)
    items = all_reps[0]["items"]
    print(f"{args.workload} seed={args.seed}: {source}, each in a fresh interpreter, "
          f"{items} items each")
    print(f"fail_frac = {failed / attempted:.4f} ({failed} of {attempted} items failed)")
    percentile = tail(all_reps[0]["latencies_s"])[1]
    notes = {
        "wall_s": "sum over items of each item's median latency",
        "items_per_s": f"{items} items / wall_s",
        "item_p50_ms": f"p50 of {items} per-item median latencies",
        "item_tail_ms": f"p{percentile:.1f} of {items} per-item median latencies"
        + (" (the maximum: 10 samples or fewer)" if items <= 10 else ""),
    }
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in values:
            fail(f"metric {name} was not measured", 1)
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        note = notes.get(name, "")
        print(f"  {name:42s} {values[name]:14.6f} {metric['unit']:6s} {note or 'median'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
