"""One repetition of a workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/rep.py --workload NAME --workdir DIR [--trace]

Reads the items run.py wrote to DIR/inputs.json, then times importing
fdual plus the workload's set-up, then times every item, then checks every
output.  Prints one JSON object.
With --trace, the calls into fdual record spans (spans.py) and the object
also holds the per-layer metrics; the spans are written to DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(args.workdir, "inputs.json"), encoding="utf-8") as fh:
        items = json.load(fh)

    started = time.perf_counter()
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    workloads.setup(args.workload, items)
    setup_s = time.perf_counter() - started

    run = workloads.run_item
    if tracer is not None:
        run = tracer.wrap("bench.item", run)
    outcomes, latencies = [], []
    for item in items:
        t0 = time.perf_counter()
        try:
            outcome = run(args.workload, item, args.workdir)
        except Exception as exc:  # counted as a failed item, never fatal
            traceback.print_exc()
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    if tracer is not None:
        tracer.uninstall()

    failed = 0
    for item, outcome in zip(items, outcomes):
        problems = workloads.check(args.workload, item, outcome)
        if problems:
            failed += 1
            print(f"FAILED {item}: {problems}", file=sys.stderr)

    result = {
        "items": len(items),
        "failed": failed,
        "setup_s": setup_s,
        "latencies_s": latencies,
        "peak_rss_mb": workloads.peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = workloads.layer_metrics(args.workload, items, outcomes, tracer)
        tracer.write(os.path.join(args.workdir, "spans.tsv"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
