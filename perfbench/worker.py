"""One benchmark process, started by run.py.

It imports fnls from the checkout's `src`, builds a workload's inputs from
the seed, and then either stops (`--setup-only`) or runs passes until
`--seconds` have elapsed, at least one.  With `--trace 1` untraced and
traced passes alternate, starting untraced and ending traced, and the spans
are written to `.perfbench_out/spans-<workload>.npz`.  Every call's outputs
are checked after its pass.  The last line of standard output is
one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback


def run_pass(calls):
    """Run every call once; returns wall s, CPU s, [(call, result, error)]."""
    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    for call in calls:
        try:
            results.append((call, call.fn(), None))
        except Exception:  # a raising call is a failed call, not a failed run
            results.append((call, None, traceback.format_exc(limit=4)))
    return time.perf_counter() - t0, time.process_time() - c0, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import fnls

    if not os.path.abspath(fnls.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"fnls imported from {fnls.__file__}, not from {src}")
    import numpy as np
    import scipy

    import workloads

    calls = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    expected = workloads.load_expected()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    wall = {False: [], True: []}  # traced? -> pass wall times
    cpu, problems = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    traced = False
    while True:
        if traced:
            with tracer:
                pass_wall, pass_cpu, results = run_pass(calls)
        else:
            pass_wall, pass_cpu, results = run_pass(calls)
            cpu.append(pass_cpu)
        wall[traced].append(pass_wall)
        for call, result, error in results:
            attempted += 1
            found = workloads.call_problems(call, result, error, expected)
            failed += bool(found)
            problems += found
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
        traced = tracer is not None and not traced

    out = {
        "ready": ready,
        "run_s": wall[False],
        "cpu_s": cpu,
        "traced_run_s": wall[True],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "largest_array_bytes": workloads.largest_array_bytes(args.workload),
    }
    if tracer is not None:
        import metrics

        spans = tracer.spans()
        out["layers"] = metrics.layer_metrics(
            spans, len(wall[True]), metrics.median(wall[False]), metrics.median(wall[True])
        )
        names, facts = spans.pop("names"), spans.pop("facts")
        path = os.path.join(args.root, ".perfbench_out", f"spans-{args.workload}.npz")
        np.savez(path, names=np.array(names), facts=json.dumps(facts), **spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
