"""The verification report: each check's result, the verdict, and the
`report-v1` JSON that `crlab verify --out` writes, one file per parameter.

The JSON bytes are the contract: keys sorted, two-space indent, one
trailing newline, margins and residuals as floats and counts as ints.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

SCHEMA_VERSION = "report-v1"


@dataclass
class CheckResult:
    name: str
    passed: bool
    margins: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    skipped: bool = False

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "skipped": bool(self.skipped),
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
            "notes": list(self.notes),
        }


class VerdictKind(enum.Enum):
    SURGERY = "surgery-slope"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not-applicable"


@dataclass
class Verdict:
    kind: VerdictKind
    p: int | None = None
    q: int | None = None
    reason: str = ""

    def to_dict(self):
        return {
            "kind": self.kind.value,
            "slope": None if self.p is None else [int(self.p), int(self.q)],
            "reason": self.reason,
        }


@dataclass
class VerificationReport:
    alpha2: float
    side: object
    tr_u: float
    tf: CheckResult
    lc: CheckResult
    gc: CheckResult
    incidence: CheckResult
    verdict: Verdict
    grid_n: int
    tol: float
    notes: list = field(default_factory=list)

    def all_passed(self):
        return all(
            c.passed for c in (self.incidence, self.tf, self.lc, self.gc) if not c.skipped
        )

    def to_dict(self):
        side = {
            "kind": self.side.kind.value,
            "beta": self.side.beta,
            "length": self.side.length,
            "n": self.side.n,
            "delta": [self.side.delta.real, self.side.delta.imag],
        }
        return {
            "schema": SCHEMA_VERSION,
            "alpha2": float(self.alpha2),
            "tr_u": float(self.tr_u),
            "side": side,
            "grid_n": int(self.grid_n),
            "tolerance": float(self.tol),
            "checks": {
                "incidence": self.incidence.to_dict(),
                "tf": self.tf.to_dict(),
                "lc": self.lc.to_dict(),
                "gc": self.gc.to_dict(),
            },
            "verdict": self.verdict.to_dict(),
            "notes": list(self.notes),
        }


def to_json(report: VerificationReport) -> str:
    """The report's `report-v1` JSON text."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
