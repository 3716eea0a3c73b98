"""Command-line front end: verification runs, parameter sweeps, figures,
and classification of matrices or group words.

Exit codes: 0 on success (all verdicts as predicted), 1 when a check fails
at a parameter where it should pass, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import figures
from .core import GeometryError, siegel_model
from .family import FamilyParams, FamilyRep, alpha2_for_order
from .isometry import Isometry, classify, elliptic_type, verify_su21
from .verify import DEFAULT_GRID, verify


def _report_to_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _param_token(alpha2: float) -> str:
    return (figures.CSV_FMT % alpha2).replace("-", "m").replace(".", "p").replace("+", "")


def _verify_one(job):
    """Verify one parameter: (summary line, whether it failed).  A
    GeometryError fails this parameter alone; a sweep keeps the others."""
    alpha2, grid_n, tol, out_dir = job
    head = f"alpha2={figures.CSV_FMT % alpha2}: "
    try:
        report = verify(alpha2, tol=tol, grid_n=grid_n)
    except GeometryError as exc:
        return head + f"error ({exc})", True
    path = None
    if out_dir:
        path = os.path.join(out_dir, f"report_alpha2_{_param_token(alpha2)}.json")
        with open(path, "w", newline="\n") as fh:
            fh.write(_report_to_json(report))
    verdict = report.verdict.to_dict()
    slope = verdict["slope"]
    tag = f"slope {slope[0]}/{slope[1]}" if slope else verdict["kind"]
    reason = f" ({verdict['reason']})" if verdict["reason"] else ""
    return head + tag + reason + (f" -> {path}" if path else ""), not report.all_passed()


def cmd_verify(args) -> int:
    params = []
    if args.n is not None:
        if args.n < 4:
            print("error: --n must be at least 4", file=sys.stderr)
            return 2
        params = [alpha2_for_order(args.n)]
    elif args.alpha2 is not None:
        if not (0.0 < args.alpha2 < math.pi / 2):
            print("error: --alpha2 must lie in (0, pi/2)", file=sys.stderr)
            return 2
        params = [args.alpha2]
    elif args.sweep is not None:
        try:
            a, b, step = (float(x) for x in args.sweep.split(":"))
        except ValueError:
            print("error: --sweep expects A:B:STEP", file=sys.stderr)
            return 2
        if step <= 0 or not (0.0 < a < math.pi / 2) or not (0.0 < b <= math.pi / 2):
            print("error: sweep outside (0, pi/2) or nonpositive step", file=sys.stderr)
            return 2
        x = a
        while x < b - 1e-15:
            params.append(x)
            x = a + len(params) * step
    else:
        print("error: one of --n, --alpha2, --sweep is required", file=sys.stderr)
        return 2

    out_dir = args.out
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    jobs = [(p, args.grid, args.tol, out_dir) for p in params]
    if args.workers > 1 and len(jobs) > 1:
        import multiprocessing

        with multiprocessing.Pool(args.workers) as pool:
            results = pool.map(_verify_one, jobs)
    else:
        results = [_verify_one(j) for j in jobs]

    for line, _ in results:
        print(line)
    return 1 if any(failed for _, failed in results) else 0


def cmd_figure(args) -> int:
    if args.name not in figures.FIGURES:
        print(f"error: unknown figure {args.name!r}; choose from "
              f"{sorted(figures.FIGURES)}", file=sys.stderr)
        return 2
    if args.n is not None and args.n < 4:
        print("error: --n must be at least 4", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, args.name)
    kwargs = {}
    if args.resolution is not None:
        if args.resolution < 64:
            print("error: resolution must be >= 64", file=sys.stderr)
            return 2
        if args.name == "disk-projection":
            kwargs["n"] = args.n or 20
            kwargs["boundary_points"] = args.resolution
        else:
            kwargs["resolution"] = args.resolution
    elif args.name == "disk-projection":
        kwargs["n"] = args.n or 20
    if args.name == "spinal-trace" and args.alpha2 is not None:
        kwargs["alpha2"] = args.alpha2
    try:
        path, _ = figures.FIGURES[args.name](base, fmt=args.format, **kwargs)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


def _read_matrix(path):
    data = np.loadtxt(path).reshape(-1)
    if data.size != 18:
        raise ValueError("matrix file must hold 18 reals (row-major, re/im interleaved)")
    return (data[0::2] + 1j * data[1::2]).reshape(3, 3)


def cmd_classify(args) -> int:
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
        rep = FamilyRep(FamilyParams(0.0, args.alpha2))
        try:
            g = rep.word(args.word)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print("error: one of --matrix, --word is required", file=sys.stderr)
        return 2

    cls = classify(g, args.tol)
    out = {
        "class": cls.kind.value,
        "trace": [cls.trace.real, cls.trace.imag],
        "goldman_f": cls.goldman,
        "eigenvalues": [[t.value.real, t.value.imag] for t in cls.eigen],
        "norm_signs": [t.norm_sign for t in cls.eigen],
    }
    if cls.kind.value == "regular-elliptic":
        et = elliptic_type(g, args.tol)
        if et.is_finite:
            out["elliptic_type"] = {"p": et.p, "q": et.q, "n": et.n}
        else:
            out["elliptic_type"] = {"angles": [et.angle1, et.angle2]}
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
        "--grid", type=int, default=DEFAULT_GRID, help="torus resolution: TF and LC read grid // 2 delta-columns"
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
    if args.command == "verify" and args.grid < 64:
        print("error: grid resolution must be >= 64", file=sys.stderr)
        return 2
    tol = getattr(args, "tol", None)
    if tol is not None and not (1e-14 <= tol <= 1e-3):
        print("error: tolerance must lie in [1e-14, 1e-3]", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
