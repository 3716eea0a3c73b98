"""The verification report: the results of the checks TF, LC and GC, the
verdict, and the `report-v11` JSON that `crlab verify --out` writes, one
file per parameter.

The JSON bytes are the contract: keys sorted, two-space indent, one
trailing newline, margins and residuals as floats, grid_n, the order n and
the slope as ints, the bytes of `json.dumps(..., sort_keys=True,
indent=2)`.  Each number is reported once: a margin that equals another,
or is a fixed multiple of one, is left out, and the check that reads it
says so.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = "report-v11"


@dataclass
class CheckResult:
    name: str
    passed: bool
    margins: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    skipped: bool = False

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "skipped": bool(self.skipped),
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
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
    verdict: Verdict
    grid_n: int
    tol: float

    def all_passed(self):
        return all(c.passed for c in (self.tf, self.lc, self.gc) if not c.skipped)

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
                "tf": self.tf.to_dict(),
                "lc": self.lc.to_dict(),
                "gc": self.gc.to_dict(),
            },
            "verdict": self.verdict.to_dict(),
        }


def to_json(report: VerificationReport) -> str:
    """The report's `report-v11` JSON text, by one walk of its dict (`_dump`)."""
    return _dump(report.to_dict(), "\n") + "\n"


def _dump(o, newline: str) -> str:
    """The text json.dumps(o, sort_keys=True, indent=2) gives o at the
    indent of `newline`, for the exact types `to_dict` emits (dict, list,
    str, float, int, bool, None), from the same leaf encoders (the C string
    escaper, float.__repr__ with NaN and Infinity, int.__repr__), joined in
    one pass instead of through the pure-Python encoder's generators."""
    t = type(o)
    if t is float:
        return float.__repr__(o) if o - o == 0.0 else "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if t is dict:
        inner = newline + "  "
        items = [inner + encode_basestring_ascii(k) + ": " + _dump(o[k], inner) for k in sorted(o)]
        return "{" + ",".join(items) + newline + "}" if o else "{}"
    if t is list:
        inner = newline + "  "
        return "[" + ",".join([inner + _dump(v, inner) for v in o]) + newline + "]" if o else "[]"
    if t is str:
        return encode_basestring_ascii(o)
    if o is None or t is bool:
        return "null" if o is None else "true" if o else "false"
    return int.__repr__(o)
