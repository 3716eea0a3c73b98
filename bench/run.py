"""Benchmark of the crlab command line.

    python3 bench/run.py --workload verify-params --seed 1 --seconds 36 --trace 0

Runs one workload through the public entry point `crlab.cli.main(argv)`
in this process, checks every output against values worked out apart
from the program, and prints as its last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` one untraced and one
traced round give the per-layer ones.  Run it from the root of a source
tree: crlab is imported from `src/`, and outputs go to `bench/out/`.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy is imported, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads as wl
from spans import LAYERS, Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
SETUP_SAMPLES = 12  # at least this many, spread before each round and after the last


def setup_times(repeats: int) -> list[float]:
    """Wall times of a fresh interpreter importing crlab.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import crlab.cli"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(cli, name, seed, seconds):
    cmds = wl.build(name, seed, os.path.join(OUT, name))
    setup_times(1)  # byte-compiles the sources, which users pay only once
    # a fixed number of rounds, so that a slow phase of a shared machine
    # lengthens the run but leaves every command as many samples
    rounds = wl.rounds_for(name, seconds)
    repeats = math.ceil(SETUP_SAMPLES / (rounds + 1))
    setup, done = [], wl.Pass()
    for _ in range(rounds):
        setup += setup_times(repeats)
        done.extend(wl.run_rounds(cli.main, cmds))
    setup += setup_times(repeats)
    errors = list(done.errors)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (done.ops_per_s, "ops/s"),
        "cmd_p50_s": (done.cmd_p50, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return done, errors, metrics


def traced(cli, name, seed):
    out = os.path.join(OUT, name)
    cmds = wl.build(name, seed, out)
    done = wl.run_rounds(cli.main, cmds)
    untraced_s = done.busy
    errors = list(done.errors)

    tracer = Tracer()
    tracer.install({layer: importlib.import_module(f"crlab.{layer}") for layer in LAYERS})

    def main(argv):
        tracer.request_id += 1
        return cli.main(argv)

    try:
        tr = wl.run_rounds(main, cmds)
    finally:
        tracer.uninstall()
    done.extend(tr)
    errors += tr.errors
    tracer.save(os.path.join(OUT, f"trace-{name}.npz"))

    metrics = layer_metrics(tracer)
    written = wl.dir_bytes(cmds)
    metrics["figures.bytes"] = (written if name == "figures" else 0, "B")
    metrics["cli.report_bytes"] = (0 if name == "figures" else written, "B")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (tr.busy, "s")
    return done, errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crlab", "cli.py")):
        print(f"error: no crlab sources under {SRC}; run from a crlab source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import crlab.cli as cli

    os.makedirs(OUT, exist_ok=True)
    shutil.rmtree(os.path.join(OUT, args.workload), ignore_errors=True)
    if args.trace:
        done, errors, metrics = traced(cli, args.workload, args.seed)
    else:
        done, errors, metrics = end_to_end(cli, args.workload, args.seed, args.seconds)
    for e in errors[:20]:
        print(f"check: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": done.attempted,
        "failed": done.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
