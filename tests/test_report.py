"""The report-v11 writer against the standard library's encoder."""

import json
import math

import pytest

from crlab.family import ALPHA2_LIM, SideKind, alpha2_for_order, param_side
from crlab.report import CheckResult, Verdict, VerdictKind, VerificationReport, to_json
from crlab.verify import verify

from conftest import VERIFY_PARAMS
from test_golden_verdicts import parameters as golden_parameters


def reference_text(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("alpha2, grid", [(a, 720) for a in VERIFY_PARAMS] + [(a, 128) for _, a in golden_parameters()])
def test_writer_is_the_standard_encoder_on_verify_reports(alpha2, grid):
    report = verify(alpha2, grid_n=grid)
    assert to_json(report) == reference_text(report)


def test_writer_is_the_standard_encoder_on_odd_values():
    # NaN, both infinities, -0.0, subnormals, empty containers, a None slope
    # and side fields, odd ints (zero, negative, large) in grid_n and the
    # slope, and notes with quotes, backslashes, control and non-ASCII
    # characters
    checks = {
        name: CheckResult(
            name,
            passed=name != "gc",
            margins={"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "neg_zero": -0.0, "tiny": 5e-324},
            residuals={} if name == "lc" else {"big": 1.7976931348623157e308, "one": 1.0},
            notes=[] if name == "tf" else ['say "yes", then {no}', "back\\slash\ttab\nline", "β = 2π/n, ☃"],
            skipped=name == "lc",
        )
        for name in ("tf", "lc", "gc")
    }
    for side, verdict, grid in (
        (param_side(ALPHA2_LIM), Verdict(VerdictKind.NOT_APPLICABLE, reason='the "wall"'), 0),
        (param_side(0.7), Verdict(VerdictKind.SURGERY, 1, -3), -2),
        (param_side(alpha2_for_order(9)), Verdict(VerdictKind.INCONCLUSIVE, reason=""), 64),
        (param_side(alpha2_for_order(12)), Verdict(VerdictKind.SURGERY, 0, -(2**70)), 3),
    ):
        assert side.kind in SideKind
        report = VerificationReport(0.7, side, math.inf, verdict=verdict, grid_n=grid, tol=1e-9, **checks)
        assert to_json(report) == reference_text(report)
        report.tr_u = -0.0
        assert to_json(report) == reference_text(report)
