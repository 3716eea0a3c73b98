"""Golden verdict table: `verify` at grid 128 on strided parameters.

golden_verdicts.json holds, for each parameter of `parameters()`, the
verdict (kind, slope and reason) and each check's passed, skipped and
notes, as `verify` reported them when the table was written.  A change
that moves any of them fails here.  A change that means to move them writes
the table again with

    PYTHONPATH=src python tests/test_golden_verdicts.py

and lists in CHANGES.md every entry that moved, and why.
"""

import json
import math
import pathlib

import numpy as np

from crlab.family import ALPHA2_LIM, alpha2_for_order
from crlab.reference import alpha2_for_length
from crlab.verify import verify

TABLE = pathlib.Path(__file__).with_name("golden_verdicts.json")
GRID = 128
FIELDS = ("passed", "skipped", "notes")


def parameters() -> list[tuple[str, float]]:
    """(label, alpha2): orders 4..10^4 (every order to 20, then strided, and
    2809, 3000 and 10^4 near the wall, each a slope 1/(n - 3) since
    param_side alone decides the wall), both sides of the wall away from
    the orders, the wall and its neighbours, the fan parameter and the
    alpha2 -> 0 end."""
    orders = [*range(4, 21), *range(24, 201, 12), *range(201, 2810, 97), 2809, 3000, 10**4]
    out = [(f"order {n}", alpha2_for_order(n)) for n in orders]
    out += [(f"length {x}", alpha2_for_length(x)) for x in (0.25, 0.7, 1.0, 1.75)]
    out += [(f"loxodromic {i}", float(a)) for i, a in enumerate(np.linspace(0.02, ALPHA2_LIM - 1e-3, 36))]
    out += [(f"elliptic {i}", float(a)) for i, a in enumerate(np.linspace(ALPHA2_LIM + 1e-3, 1.569, 30))]
    out += [("wall", ALPHA2_LIM), ("wall - 1e-6", ALPHA2_LIM - 1e-6), ("wall + 1e-9", ALPHA2_LIM + 1e-9)]
    out += [("pi/6", math.pi / 6)]
    out += [(f"1e-{k}", 10.0**-k) for k in range(3, 17)]
    return out


def entry(label: str, alpha2: float) -> dict:
    report = verify(alpha2, grid_n=GRID).to_dict()
    checks = {name: {k: check[k] for k in FIELDS} for name, check in report["checks"].items()}
    return {"label": label, "alpha2": alpha2, "verdict": report["verdict"], "checks": checks}


def test_verdicts_match_the_golden_table():
    table = json.loads(TABLE.read_text())
    assert table["grid"] == GRID
    assert [(e["label"], e["alpha2"]) for e in table["entries"]] == parameters()
    moved = [want["label"] for want in table["entries"] if entry(want["label"], want["alpha2"]) != want]
    assert moved == []


if __name__ == "__main__":
    entries = [json.dumps(entry(label, alpha2), sort_keys=True) for label, alpha2 in parameters()]
    TABLE.write_text(f'{{"grid": {GRID}, "entries": [\n' + ",\n".join(entries) + "\n]}\n")
    print(f"{TABLE}: {len(entries)} parameters")
