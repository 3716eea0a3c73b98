"""Command-line front end: verification runs, parameter sweeps, figures,
and classification of matrices or group words.

Exit codes: 0 on success (all verdicts as predicted), 1 when a check fails
at a parameter where it should pass, 2 on usage errors.

Only the verify path is imported with this module, and it loads no numpy:
`figure` and `classify` import the figures, the matrices and numpy when
they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .report import to_json
from .scalar import CSV_FMT, MAX_ORDER, GeometryError, alpha2_for_order, tolerance
from .verify import DEFAULT_GRID, verify

# the most parameters one --sweep may list
MAX_SWEEP_POINTS = 10**6
# the largest --grid, which verify echoes as grid_n and reads nowhere else
MAX_GRID = 2**16
# the most output rows one figure may have (figures.FIGURE_ROWS); a figure's
# memory grows about linearly with its rows
MAX_FIGURE_ROWS = 2**24


def _param_token(alpha2: float) -> str:
    return (CSV_FMT % alpha2).replace("-", "m").replace(".", "p").replace("+", "")


def _verify_one(job):
    """Verify one parameter: (summary line, whether it failed).  A
    GeometryError fails this parameter alone; a sweep keeps the others."""
    alpha2, grid_n, tol, out_dir = job
    head = f"alpha2={CSV_FMT % alpha2}: "
    try:
        report = verify(alpha2, tol=tol, grid_n=grid_n)
    except GeometryError as exc:
        return head + f"error ({exc})", True
    path = None
    if out_dir:
        path = os.path.join(out_dir, f"report_alpha2_{_param_token(alpha2)}.json")
        with open(path, "w", newline="\n") as fh:
            fh.write(to_json(report))
    verdict = report.verdict
    tag = verdict.kind.value if verdict.p is None else f"slope {verdict.p}/{verdict.q}"
    reason = f" ({verdict.reason})" if verdict.reason else ""
    return head + tag + reason + (f" -> {path}" if path else ""), not report.all_passed()


def _bad_n_or_alpha2(n, alpha2) -> bool:
    """Whether an order n outside [4, MAX_ORDER] or an alpha2 outside
    (0, pi/2) was given, the usage error printed; None stands for a flag
    not given."""
    if n is not None and n < 4:
        print("error: --n must be at least 4", file=sys.stderr)
        return True
    if n is not None and n > MAX_ORDER:
        print(f"error: --n must be at most {MAX_ORDER}, the largest order an alpha2 pins", file=sys.stderr)
        return True
    if alpha2 is not None and not (0.0 < alpha2 < math.pi / 2):
        print("error: --alpha2 must lie in (0, pi/2)", file=sys.stderr)
        return True
    return False


def _make_out_dir(path) -> bool:
    """Create the --out directory, or print the usage error and return
    False when it cannot be made (it names an existing file, say)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot make the --out directory {path!r}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def cmd_verify(args) -> int:
    given = [flag for flag, value in (("--n", args.n), ("--alpha2", args.alpha2), ("--sweep", args.sweep)) if value is not None]
    if len(given) > 1:
        print(f"error: give only one of --n, --alpha2, --sweep (given: {', '.join(given)})", file=sys.stderr)
        return 2
    if _bad_n_or_alpha2(args.n, args.alpha2):
        return 2
    params = []
    if args.n is not None:
        params = [alpha2_for_order(args.n)]
    elif args.alpha2 is not None:
        params = [args.alpha2]
    elif args.sweep is not None:
        try:
            a, b, step = (float(x) for x in args.sweep.split(":"))
        except ValueError:
            print("error: --sweep expects A:B:STEP", file=sys.stderr)
            return 2
        if not (0.0 < step < math.inf) or not (0.0 < a < math.pi / 2) or not (0.0 < b <= math.pi / 2):
            print("error: sweep outside (0, pi/2), or a STEP that is not positive and finite", file=sys.stderr)
            return 2
        if a + step == a:
            print("error: sweep step does not advance A", file=sys.stderr)
            return 2
        if (b - a) / step > MAX_SWEEP_POINTS:
            print(f"error: sweep has more than {MAX_SWEEP_POINTS} points", file=sys.stderr)
            return 2
        x = a
        while x < b - 1e-15:
            params.append(x)
            x = a + len(params) * step
        if not params:
            print("error: sweep lists no parameter in [A, B)", file=sys.stderr)
            return 2
    else:
        print("error: one of --n, --alpha2, --sweep is required", file=sys.stderr)
        return 2

    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    out_dir = args.out
    if out_dir and not _make_out_dir(out_dir):
        return 2
    jobs = [(p, args.grid, args.tol, out_dir) for p in params]
    if args.workers > 1 and len(jobs) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(args.workers, len(jobs))) as pool:
            results = pool.map(_verify_one, jobs)
    else:
        results = [_verify_one(j) for j in jobs]

    for line, _ in results:
        print(line)
    return 1 if any(failed for _, failed in results) else 0


def cmd_figure(args) -> int:
    from . import figures

    if args.name not in figures.FIGURES:
        print(f"error: unknown figure {args.name!r}; choose from "
              f"{sorted(figures.FIGURES)}", file=sys.stderr)
        return 2
    for flag, value, owner in (("--n", args.n, "disk-projection"), ("--alpha2", args.alpha2, "spinal-trace")):
        if value is not None and args.name != owner:
            print(f"error: {flag} applies only to {owner}", file=sys.stderr)
            return 2
    if _bad_n_or_alpha2(args.n, args.alpha2):
        return 2
    if args.resolution is not None and args.resolution < 64:
        print("error: resolution must be >= 64", file=sys.stderr)
        return 2
    kwargs = {"n": args.n, "alpha2": args.alpha2}
    if args.resolution is not None:
        kwargs["boundary_points" if args.name == "disk-projection" else "resolution"] = args.resolution
    kwargs = {key: value for key, value in kwargs.items() if value is not None}
    if figures.FIGURE_ROWS[args.name](**kwargs) > MAX_FIGURE_ROWS:
        print(f"error: figure has more than {MAX_FIGURE_ROWS} rows (cli.MAX_FIGURE_ROWS)", file=sys.stderr)
        return 2
    if not _make_out_dir(args.out):
        return 2
    base = os.path.join(args.out, args.name)
    try:
        path, _ = figures.FIGURES[args.name](base, fmt=args.format, **kwargs)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


def _read_matrix(path):
    import numpy as np

    data = np.loadtxt(path).reshape(-1)
    if data.size != 18:
        raise ValueError("matrix file must hold 18 reals (row-major, re/im interleaved)")
    if not np.isfinite(data).all():
        raise ValueError("matrix entries must be finite numbers")
    return (data[0::2] + 1j * data[1::2]).reshape(3, 3)


def cmd_classify(args) -> int:
    from .core import siegel_model
    from .family import FamilyParams, FamilyRep
    from .isometry import Isometry, classify, elliptic_type, verify_su21

    sp = siegel_model()
    if args.matrix:
        try:
            M = _read_matrix(args.matrix)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ok, u_res, d_res = verify_su21(M, sp, args.tol)
        if not ok:
            print(
                json.dumps(
                    {
                        "error": "matrix is not in SU(2,1) for the Siegel form",
                        "unitarity_residual": u_res,
                        "determinant_residual": d_res,
                    },
                    sort_keys=True,
                )
            )
            return 2
        g = Isometry(M, sp)
    elif args.word:
        if args.alpha2 is None:
            print("error: --word requires --alpha2", file=sys.stderr)
            return 2
        if not math.isfinite(args.alpha2):
            print("error: --alpha2 must be a finite number", file=sys.stderr)
            return 2
        rep = FamilyRep(FamilyParams(0.0, args.alpha2))
        try:
            g = rep.word(args.word)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print("error: one of --matrix, --word is required", file=sys.stderr)
        return 2

    try:
        cls = classify(g, args.tol)
        et = elliptic_type(g, args.tol) if cls.kind.value == "regular-elliptic" else None
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = {
        "class": cls.kind.value,
        "trace": [cls.trace.real, cls.trace.imag],
        "goldman_f": cls.goldman,
        "eigenvalues": [[t.value.real, t.value.imag] for t in cls.eigen],
        "norm_signs": [t.norm_sign for t in cls.eigen],
    }
    if et is not None:
        out["elliptic_type"] = {"p": et.p, "q": et.q, "n": et.n} if et.is_finite else {"angles": [et.angle1, et.angle2]}
    print(json.dumps(out, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crlab",
        description="verification and figures for the deformed Ford domain family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the TF/LC/GC checks at parameters")
    pv.add_argument("--n", type=int, help="elliptic order (picks alpha2 with 8cos^2 = 2cos(2pi/n)+1)")
    pv.add_argument("--alpha2", type=float, help="parameter alpha2 in (0, pi/2)")
    pv.add_argument("--sweep", type=str, help="half-open sweep A:B:STEP over alpha2")
    pv.add_argument(
        "--grid", type=int, default=DEFAULT_GRID,
        help=f"torus resolution in [64, {MAX_GRID}], echoed as grid_n; it sets nothing, since TF's margin "
        "is a closed form at every alpha2 and no torus column is read",
    )
    pv.add_argument("--workers", type=int, default=1)
    pv.add_argument("--out", type=str, default=None, help="directory for report JSON files")
    pv.add_argument("--tol", type=float, default=None)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("figure", help="emit figure data as CSV or SVG")
    pf.add_argument("name", type=str)
    pf.add_argument("--out", type=str, default="./out")
    pf.add_argument("--format", choices=("csv", "svg"), default="csv")
    pf.add_argument("--resolution", type=int, default=None)
    pf.add_argument("--n", type=int, default=None, help="elliptic order for disk-projection")
    pf.add_argument("--alpha2", type=float, default=None, help="parameter for spinal-trace")
    pf.set_defaults(func=cmd_figure)

    pc = sub.add_parser("classify", help="classify a matrix or a group word")
    pc.add_argument("--matrix", type=str, help="file with 18 reals, row-major re/im")
    pc.add_argument("--word", type=str, help="group word in s, t (e.g. ts^-1)")
    pc.add_argument("--alpha2", type=float, default=None)
    pc.add_argument("--tol", type=float, default=None)
    pc.set_defaults(func=cmd_classify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify" and not 64 <= args.grid <= MAX_GRID:
        print(f"error: grid resolution must lie in [64, {MAX_GRID}]", file=sys.stderr)
        return 2
    # the tolerance of every subcommand, resolved by core.tolerance, which
    # the figures read too: --tol, else CRLAB_TOL, else the default
    flag = getattr(args, "tol", None)
    try:
        tol = tolerance(flag)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not 1e-14 <= tol <= 1e-3:
        source = "CRLAB_TOL" if flag is None else "--tol"
        print(f"error: tolerance ({source}) must lie in [1e-14, 1e-3]", file=sys.stderr)
        return 2
    if hasattr(args, "tol"):
        args.tol = tol
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
