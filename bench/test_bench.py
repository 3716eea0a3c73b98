"""Tests of the benchmark's own logic; they do not run crlab.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import math

import numpy as np
import pytest

import checks
import workloads


def test_predictor_order_9_and_loxodromic():
    assert checks.predict_verdict(checks.alpha2_of_order(9)) == ("surgery-slope", [1, 6])
    assert checks.predict_verdict(0.5) == ("surgery-slope", [1, -3])


def test_predictor_wall_and_other_orders():
    assert checks.predict_verdict(checks.WALL) == ("not-applicable", None)
    assert checks.predict_verdict(checks.alpha2_of_order(6)) == ("inconclusive", None)
    assert checks.predict_verdict(1.0) == ("inconclusive", None)
    assert checks.predict_verdict(checks.alpha2_of_order(56)) == ("surgery-slope", [1, 53])
    assert checks.predict_verdict(checks.alpha2_of_length(1.0)) == ("surgery-slope", [1, -3])


def _report(alpha2=None):
    alpha2 = checks.alpha2_of_order(9) if alpha2 is None else alpha2
    passed = {"passed": True, "skipped": False}
    return {
        "alpha2": alpha2,
        "tr_u": 8.0 * math.cos(alpha2) ** 2,
        "grid_n": 720,
        "verdict": {"kind": "surgery-slope", "slope": [1, 6], "reason": ""},
        "checks": {
            "incidence": dict(passed),
            "tf": dict(passed, residuals={"bitangency_pA": 0.0, "bitangency_pB": 2e-8}),
            "lc": dict(passed),
            "gc": dict(passed),
        },
    }


def test_sound_report_is_accepted():
    assert checks.check_report(_report(), 720) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r["verdict"].update(slope=[1, -3]),
        lambda r: r["verdict"].update(kind="inconclusive", slope=None),
        lambda r: r["checks"]["lc"].update(passed=False),
        lambda r: r["checks"]["tf"]["residuals"].update(bitangency_pB=1.0),
        lambda r: r.update(tr_u=r["tr_u"] + 1e-9),
        lambda r: r.update(grid_n=128),
        lambda r: r.pop("checks"),
    ],
    ids=["flipped-slope", "flipped-kind", "failed-check", "bitangency-1", "tr_u", "grid", "malformed"],
)
def test_faulty_report_is_rejected(mutate):
    report = copy.deepcopy(_report())
    mutate(report)
    assert checks.check_report(report, 720)


def test_skipped_check_may_fail():
    report = _report(checks.alpha2_of_order(6))
    report["verdict"] = {"kind": "inconclusive", "slope": None, "reason": "order below 9"}
    report["checks"]["gc"] = {"passed": False, "skipped": True}
    assert checks.check_report(report, 720) == []


def test_raising_command_is_one_failed_operation(tmp_path):
    ran = []

    def main(argv):
        ran.append(argv[0])
        if argv[0] == "boom":
            raise ValueError("elliptic type is defined for regular elliptic elements")
        return 0

    cmds = [
        workloads.Command([name], 1, str(tmp_path / name), lambda stdout: [])
        for name in ("a", "boom", "b")
    ]
    done = workloads.run_rounds(main, cmds)
    assert ran == ["a", "boom", "b"]
    assert (done.attempted, done.failed, done.errors) == (3, 1, [])
    assert len(done.times[0]) == 3


def test_nonzero_exit_is_an_error_not_a_failure(tmp_path):
    cmd = workloads.Command(["x"], 1, str(tmp_path / "x"), lambda stdout: [])
    _, failed, errors = workloads.run_command(lambda argv: 1, cmd)
    assert failed == 0
    assert errors


def _write_csv(path, header, rows):
    np.savetxt(path, rows, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def test_level_sets_check(tmp_path):
    th = np.linspace(-math.pi, math.pi, 12, endpoint=False)
    T, P = np.meshgrid(th, th, indexing="ij")
    g = np.cos(T) + np.cos(P) + np.cos(P - T)
    path = str(tmp_path / "level-sets.csv")
    _write_csv(path, ["theta", "phi", "g"], np.column_stack([T.ravel(), P.ravel(), g.ravel()]))
    assert checks.check_level_sets(path) == []
    _write_csv(path, ["theta", "phi", "g"], np.column_stack([T.ravel(), P.ravel(), g.ravel() + 1e-6]))
    assert checks.check_level_sets(path)


def test_peach_curve_check(tmp_path):
    a = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 33)
    A1, A2 = np.meshgrid(a, a, indexing="ij")
    tr = 8.0 * np.cos(A2) ** 2  # real on the alpha1 = 0 column
    f = (tr - 3.0) ** 3 * (tr + 1.0)
    path = str(tmp_path / "peach-curve.csv")
    _write_csv(path, ["alpha1", "alpha2", "f_tr"], np.column_stack([A1.ravel(), A2.ravel(), f.ravel()]))
    assert checks.check_peach_curve(path) == []
    _write_csv(path, ["alpha1", "alpha2", "f_tr"], np.column_stack([A1.ravel(), A2.ravel(), -np.abs(f.ravel())]))
    assert checks.check_peach_curve(path)


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        a = [c.argv for c in workloads.build(name, 5, "out")]
        assert a == [c.argv for c in workloads.build(name, 5, "out")]
        assert a != [c.argv for c in workloads.build(name, 6, "out")]


def test_tracer_counts_calls_and_outer_time():
    from spans import Tracer

    tracer = Tracer()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("core.fact", fact)
    assert traced(5) == 120
    calls, secs = tracer.totals()
    assert calls == {"core.fact": 5}
    top = tracer.end[0] - tracer.start[0]
    assert secs["core.fact"] == pytest.approx(top)
    assert list(tracer.parent) == [-1, 0, 1, 2, 3]
