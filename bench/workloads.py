"""The benchmark's workloads as lists of `crlab` command lines, and the
loop that runs them through `crlab.cli.main` and checks every output.

A workload is one round of commands built from the seed.  Every round
attempts the same operations (one verified parameter or one written figure
file each), so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import checks

VERIFY_GRID = 720
VERIFY_ORDERS = (9, 6, 56)
LOXODROMIC_LENGTHS = (0.25, 1.75)  # range the seeded length is drawn from

DISK_ORDER = 20
SPINAL_CSV_RESOLUTION = 225
SPINAL_ALPHA2 = (0.6, 0.8)  # range the seeded spinal-trace parameter is drawn from
# (figure, format) -> arguments, sized so that every command takes about
# 0.1-0.4 s: a run then holds a dozen rounds, so each command's best time
# is the least of a dozen samples spread over the run
FIGURE_ARGS = {
    # divisible by 6: both extrema of the level function are grid points
    ("level-sets", "csv"): ["--resolution", "198"],
    ("level-sets", "svg"): ["--resolution", "66"],
    # odd: the alpha1 = 0 column is on the grid
    ("peach-curve", "csv"): ["--resolution", "65"],
    ("peach-curve", "svg"): ["--resolution", "65"],
    ("region-z", "csv"): ["--resolution", "192"],
    ("region-z", "svg"): ["--resolution", "160"],
    ("disk-projection", "csv"): ["--n", str(DISK_ORDER), "--resolution", "768"],
    ("disk-projection", "svg"): ["--n", str(DISK_ORDER), "--resolution", "768"],
    ("spinal-trace", "csv"): ["--resolution", str(SPINAL_CSV_RESOLUTION)],
    ("spinal-trace", "svg"): ["--resolution", "181"],
    ("schwartz-slice", "csv"): ["--resolution", "150"],
    ("schwartz-slice", "svg"): ["--resolution", "100"],
}

WORKLOADS = ("verify-params", "figures")
# typical time of one round, with its checks and set-up samples, on a
# 2-core machine
ROUND_SECONDS = {"verify-params": 6.5, "figures": 3.5}


@dataclass
class Command:
    argv: list[str]
    ops: int
    out_dir: str
    check: Callable[[str], list[str]]  # captured stdout -> errors


@dataclass
class Pass:
    """Command times of whole rounds, `times[r][j]` for command j of round r."""

    times: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def extend(self, other: "Pass"):
        self.times += other.times
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    @property
    def busy(self) -> float:
        return sum(map(sum, self.times))

    @property
    def best(self) -> list[float]:
        """Each command's least time over the rounds.  Contention on a
        shared machine only ever slows a command down, and its slow phases
        last seconds, so the least of rounds spread over the run is the
        steadiest estimate of what the command costs."""
        return [min(col) for col in zip(*self.times)]

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / len(self.times) / sum(self.best)

    @property
    def cmd_p50(self) -> float:
        return statistics.median(self.best)


def verify_params(seed: int, out: str) -> list[Command]:
    rng = random.Random(seed)
    params = [("--n", str(n), checks.alpha2_of_order(n)) for n in VERIFY_ORDERS]
    params.append(("--alpha2", repr(checks.WALL), checks.WALL))
    a2 = checks.alpha2_of_length(rng.uniform(*LOXODROMIC_LENGTHS))
    params.append(("--alpha2", repr(a2), a2))
    rng.shuffle(params)
    cmds = []
    for i, (flag, value, a2) in enumerate(params):
        d = os.path.join(out, f"cmd{i:02d}")
        argv = ["verify", flag, value, "--grid", str(VERIFY_GRID), "--out", d]
        cmds.append(Command(argv, 1, d, _verify_check(d, [a2], VERIFY_GRID)))
    return cmds


def figures(seed: int, out: str) -> list[Command]:
    rng = random.Random(seed)
    spinal_alpha2 = rng.uniform(*SPINAL_ALPHA2)
    cmds = []
    for (name, fmt), extra in FIGURE_ARGS.items():
        if name == "spinal-trace":
            extra = extra + ["--alpha2", repr(spinal_alpha2)]
        d = os.path.join(out, f"{name}-{fmt}")
        argv = ["figure", name, "--format", fmt, "--out", d] + extra
        cmds.append(Command(argv, 1, d, _figure_check(name, os.path.join(d, f"{name}.{fmt}"))))
    rng.shuffle(cmds)
    return cmds


def _verify_check(out_dir, expected, grid):
    return lambda stdout: checks.check_verify_output(out_dir, expected, grid, stdout)


CSV_CHECKS = {
    "level-sets": checks.check_level_sets,
    "peach-curve": checks.check_peach_curve,
    "region-z": checks.check_region_z,
    "disk-projection": lambda p: checks.check_disk_projection(p, DISK_ORDER),
    "spinal-trace": lambda p: checks.check_spinal_trace(p, SPINAL_CSV_RESOLUTION),
    "schwartz-slice": checks.check_schwartz_slice,
}


def _figure_check(name, path):
    def check(stdout):
        if stdout.strip() != path:
            return [f"figure {name} printed {stdout.strip()!r}, expected {path!r}"]
        if path.endswith(".svg"):
            return checks.check_svg(path)
        try:
            return CSV_CHECKS[name](path)
        except ValueError as exc:
            return [f"{path}: {exc}"]
    return check


def build(workload: str, seed: int, out: str) -> list[Command]:
    if workload == "verify-params":
        return verify_params(seed, out)
    if workload == "figures":
        return figures(seed, out)
    raise ValueError(f"unknown workload {workload!r}")


def run_command(main, cmd: Command) -> tuple[float, int, list[str]]:
    """Run one command: (seconds, failed operations, errors).  A command
    that raises counts all its operations as failed, and the caller goes
    on with the next one."""
    shutil.rmtree(cmd.out_dir, ignore_errors=True)
    os.makedirs(cmd.out_dir)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(cmd.argv)
    except Exception as exc:  # the program's fault, recorded per operation
        dt = time.perf_counter() - t0
        print(f"failed: crlab {' '.join(cmd.argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return dt, cmd.ops, []
    dt = time.perf_counter() - t0
    errors = [] if rc == 0 else [f"crlab {' '.join(cmd.argv)} exited with {rc}"]
    return dt, 0, errors + cmd.check(buf.getvalue())


def run_rounds(main, cmds: list[Command], rounds: int = 1) -> Pass:
    done = Pass()
    for _ in range(rounds):
        row = []
        for cmd in cmds:
            dt, failed, errors = run_command(main, cmd)
            row.append(dt)
            done.attempted += cmd.ops
            done.failed += failed
            done.errors += errors
        done.times.append(row)
    return done


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds that fill about `seconds` on a 2-core machine."""
    return max(2, math.ceil(seconds / ROUND_SECONDS[workload]))


def dir_bytes(cmds: list[Command]) -> int:
    return sum(
        os.path.getsize(os.path.join(c.out_dir, f)) for c in cmds for f in os.listdir(c.out_dir)
    )
