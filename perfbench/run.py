"""fnls benchmark: time to a verdict on the workloads named in BENCHMARK.json.

    python3 perfbench/run.py --workload separation --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above this file, and fnls
is imported from its `src`.  With `--trace 0` the end-to-end metrics are
measured; with `--trace 1` untraced and traced passes alternate and the
per-layer metrics come from the traced ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A record
of the run, with its context, goes to `.perfbench_out/` in the checkout.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 4  # extra processes that only set up; with the measuring one, 5 samples
TIME_LIMIT_S = 175.0
MAX_THREADS = 2


class WorkerFailed(RuntimeError):
    pass


def spawn(cmd, env, deadline) -> dict:
    """Run one worker to completion; its last stdout line, plus the spawn time."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"worker exceeded the time limit: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}: {cmd}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def cache_sizes() -> dict:
    """L2 and L3 sizes as lscpu states them, with the total in bytes."""
    try:
        text = subprocess.run(
            ["lscpu"], env=dict(os.environ, LC_ALL="C"), stdout=subprocess.PIPE,
            text=True, timeout=10,
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    sizes = {}
    for level in ("L2", "L3"):
        m = re.search(rf"^{level} cache:\s*(.+)$", text, re.MULTILINE)
        if m:
            size = re.match(r"([\d.]+)\s*([KMG])", m.group(1))
            sizes[level] = {
                "lscpu": m.group(1).strip(),
                "bytes": int(float(size.group(1)) * units[size.group(2)]) if size else None,
            }
    return sizes


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "fnls", "__init__.py")):
        print(f"no fnls sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    threads = min(MAX_THREADS, nproc)
    env = dict(os.environ, FNLS_THREADS=str(threads))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [] if args.trace else [
            spawn(cmd + ["--setup-only"], env, deadline) for _ in range(SETUP_PROBES)
        ]
        run = spawn(cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    env, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    setup = [p["setup_s"] for p in probes] + [run["setup_s"]]
    caches = cache_sizes()
    context = {
        "nproc": nproc,
        "FNLS_THREADS": threads,
        **run["versions"],
        "caches": caches,
        "largest_array_bytes": run["largest_array_bytes"],
        "largest_array_vs_cache": {
            level: run["largest_array_bytes"] / c["bytes"]
            for level, c in caches.items() if c["bytes"]
        },
    }
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        values = run["layers"]
        group = "per_layer"
    else:
        values = metrics.end_to_end(
            run["run_s"], run["cpu_s"], setup, run["peak_rss_mb"], attempted, failed
        )
        group = "end_to_end"
    printed = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context,
        "samples": {"run_s": run["run_s"], "cpu_s": run["cpu_s"], "setup_s": setup,
                    "traced_run_s": run["traced_run_s"]},
        "attempted": attempted, "failed": failed, "problems": run["problems"],
        "metrics": printed,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"context: {json.dumps(context)}")
    print(f"{args.workload}: {len(run['run_s'])} untraced and {len(run['traced_run_s'])} traced "
          f"passes; setup samples {len(setup)}; error_rate {failed}/{attempted} = "
          f"{failed / attempted:.4g}")
    for problem in run["problems"]:
        print(f"FAILED {problem}")
    for name, m in printed.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
