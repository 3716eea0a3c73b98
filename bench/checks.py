"""Output checks that do not copy the program's output.

Every expected value here is worked out from the parameter alone or from
the closed forms the figures are documented to tabulate; nothing is read
back from an earlier run of crlab.  Each check returns a list of error
strings, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

# the unipotent wall: 8 cos^2 alpha2 = 3
WALL = math.acos(math.sqrt(3.0 / 8.0))
WALL_TRACE_TOL = 1e-9
ORDER_TOL = 1e-6
BITANGENCY_MAX = 1e-3


def alpha2_of_order(n: int) -> float:
    """alpha2 on the elliptic side where tr U = 8 cos^2 alpha2 = 2 cos(2 pi/n) + 1."""
    return math.acos(math.sqrt((2.0 * math.cos(2.0 * math.pi / n) + 1.0) / 8.0))


def alpha2_of_length(length: float) -> float:
    """alpha2 on the loxodromic side where tr U = 2 cosh(l) + 1."""
    return math.acos(math.sqrt((2.0 * math.cosh(length) + 1.0) / 8.0))


def predict_verdict(alpha2: float):
    """(kind, slope) expected at alpha2, from tr U = 8 cos^2 alpha2 alone."""
    tr = 8.0 * math.cos(alpha2) ** 2
    if abs(tr - 3.0) <= WALL_TRACE_TOL:
        return "not-applicable", None
    if tr > 3.0:
        return "surgery-slope", [1, -3]
    n = 2.0 * math.pi / math.acos((tr - 1.0) / 2.0)
    k = round(n)
    if k >= 9 and abs(n - k) <= ORDER_TOL * k:
        return "surgery-slope", [1, k - 3]
    return "inconclusive", None


def check_report(report: dict, grid: int) -> list[str]:
    """A verify report against the prediction for its own alpha2."""
    errors = []
    try:
        alpha2 = float(report["alpha2"])
        where = f"alpha2={alpha2!r}"
        kind, slope = predict_verdict(alpha2)
        verdict = report["verdict"]
        if verdict["kind"] != kind or verdict["slope"] != slope:
            errors.append(f"{where}: verdict {verdict['kind']} {verdict['slope']}, "
                          f"predicted {kind} {slope}")
        for name, check in sorted(report["checks"].items()):
            if not check["skipped"] and not check["passed"]:
                errors.append(f"{where}: check {name} failed")
        tf_res = report["checks"]["tf"]["residuals"]
        for key in ("bitangency_pA", "bitangency_pB"):
            if not tf_res[key] <= BITANGENCY_MAX:
                errors.append(f"{where}: {key} = {tf_res[key]!r} > {BITANGENCY_MAX}")
        tr = 8.0 * math.cos(alpha2) ** 2
        if not math.isclose(report["tr_u"], tr, rel_tol=1e-12):
            errors.append(f"{where}: tr_u {report['tr_u']!r} != 8 cos^2 alpha2 = {tr!r}")
        if report["grid_n"] != grid:
            errors.append(f"{where}: grid_n {report['grid_n']} != {grid}")
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"malformed report: {exc!r}")
    return errors


def check_verify_output(out_dir: str, expected: list[float], grid: int,
                        stdout: str) -> list[str]:
    """Reports and summary lines of one `crlab verify` command.

    `expected` lists the alpha2 values the command was asked for; the
    reports must cover exactly those, and stdout must hold one summary line
    for each.
    """
    names = sorted(f for f in os.listdir(out_dir) if f.endswith(".json"))
    reports = []
    for name in names:
        with open(os.path.join(out_dir, name)) as fh:
            reports.append(json.load(fh))
    errors = []
    got = sorted(float(r.get("alpha2", math.nan)) for r in reports)
    want = sorted(expected)
    if len(got) != len(want) or any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        errors.append(f"reports for alpha2 {got}, expected {want}")
    lines = [ln for ln in stdout.splitlines() if ln.startswith("alpha2=")]
    if len(lines) != len(want):
        errors.append(f"{len(lines)} summary lines for {len(want)} parameters")
    for report in reports:
        errors.extend(check_report(report, grid))
    return errors


# ---------------------------------------------------------------------------
# figures


def _load_csv(path: str, header: list[str]):
    with open(path) as fh:
        first = fh.readline().strip()
    if first != ",".join(header):
        raise ValueError(f"header {first!r}, expected {','.join(header)!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _close(got, want, tol=1e-9) -> bool:
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def check_level_sets(path: str) -> list[str]:
    d = _load_csv(path, ["theta", "phi", "g"])
    th, ph, g = d[:, 0], d[:, 1], d[:, 2]
    errors = []
    if not _close(g, np.cos(th) + np.cos(ph) + np.cos(ph - th)):
        errors.append("g differs from cos(theta) + cos(phi) + cos(phi - theta)")
    if abs(g.min() + 1.5) > 1e-9 or abs(g.max() - 3.0) > 1e-9:
        errors.append(f"level-set extrema {g.min()!r}, {g.max()!r}; expected -1.5 and 3")
    return errors


def check_peach_curve(path: str) -> list[str]:
    """On the alpha1 = 0 column tr = 8 cos^2 alpha2 is real and
    f = (tr - 3)^3 (tr + 1) changes sign only at alpha2 = +-WALL."""
    d = _load_csv(path, ["alpha1", "alpha2", "f_tr"])
    col = d[np.abs(d[:, 0]) <= 1e-12]
    if len(col) < 3:
        return ["no alpha1 = 0 column (use an odd resolution)"]
    a2, f = col[:, 1], col[:, 2]
    step = float(np.max(np.diff(a2)))
    flips = np.nonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]
    zeros = 0.5 * (a2[flips] + a2[flips + 1])
    errors = []
    for z in zeros:
        if min(abs(z - WALL), abs(z + WALL)) > step:
            errors.append(f"sign change at alpha2={z!r}, not within one step of +-{WALL!r}")
    for target in (WALL, -WALL):
        if not np.any(np.abs(zeros - target) <= step):
            errors.append(f"no sign change within one step of alpha2={target!r}")
    return errors


def check_region_z(path: str) -> list[str]:
    d = _load_csv(path, ["alpha1", "alpha2", "D"])
    x, y = 4.0 * np.cos(d[:, 0]) ** 2, 4.0 * np.cos(d[:, 1]) ** 2
    want = x**3 * y**3 - 9 * x**2 * y**2 - 27 * x * y**2 + 81 * x * y - 27 * x - 27
    return [] if _close(d[:, 2], want) else ["D differs from D(4cos^2 alpha1, 4cos^2 alpha2)"]


def check_schwartz_slice(path: str) -> list[str]:
    d = _load_csv(path, ["re_z", "im_z", "f", "existence"])
    z = d[:, 0] + 1j * d[:, 1]
    want = np.abs(z) ** 4 - 8 * (z**3).real + 18 * np.abs(z) ** 2 - 27
    return [] if _close(d[:, 2], want) else ["f differs from |z|^4 - 8 Re z^3 + 18|z|^2 - 27"]


def check_disk_projection(path: str, n: int) -> list[str]:
    """In the oriented chart U acts by z -> e^{2 i beta} z, beta = 2 pi/n, and
    the guard rays of the (p_U, p_V) face sit at -5beta/2 and 3beta/2.  The
    involution fixing p_U and swapping p_V, p_W mirrors that sector.  So the
    curve of U^k p_V lies within 2beta of -beta/2 + 2k beta and that of
    U^k p_W within 2beta of beta/2 + 2k beta."""
    d = _load_csv(path, ["family", "k", "re", "im"])
    beta = 2.0 * math.pi / n
    errors = []
    for fam, centre0 in ((0, -0.5 * beta), (1, 0.5 * beta)):
        for k in range(n):
            rows = d[(d[:, 0] == fam) & (d[:, 1] == k)]
            if len(rows) == 0:
                errors.append(f"curve family={fam} k={k} is empty")
                continue
            arg = np.angle(rows[:, 2] + 1j * rows[:, 3])
            off = np.angle(np.exp(1j * (arg - centre0 - 2.0 * k * beta)))
            if np.abs(off).max() >= 2.0 * beta:
                errors.append(f"curve family={fam} k={k} leaves its sector")
    return errors


def check_spinal_trace(path: str, resolution: int) -> list[str]:
    d = _load_csv(path, ["sigma", "delta", "norm", "side"])
    want = resolution * (resolution // 2)
    errors = []
    if len(d) != want:
        errors.append(f"{len(d)} rows, expected {want}")
    if not np.all(np.isfinite(d)):
        errors.append("non-finite values")
    return errors


def check_svg(path: str) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path}: not XML ({exc})"]
    return [] if root.tag.endswith("svg") else [f"{path}: root element {root.tag!r}"]
