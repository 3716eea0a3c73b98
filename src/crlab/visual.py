"""The visual sphere of a point: its charts.

The visual sphere of [p] is the CP^1 of complex lines through [p].  Two
points p', p'' of the polar line of p give the chart

    psi(q) = <p', q> / <p'', q>,

which depends only on the line through [p] and [q].  Projections of
bisectors based at p are closed disks here, bounded by honest circles in
every chart.  On the slice the disks of J_0^+ and J_0^- are closed forms
in the order n (`family.elliptic_disks`, proved in
tests/test_gc_disk_identities.py), and U acts on the chart of its
eigenvectors by its multiplier, e^{2 i beta} or e^{2l} (proved there and in
tests/test_incidence_identities.py): no check and no figure reads a chart.
The tests' oracles build theirs with `VisualChart`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GeometryError, HermitianSpace, cross


@dataclass(frozen=True, eq=False)
class VisualChart:
    """A coordinate on the visual sphere of `base` given by two polar
    points, each a coordinate vector of `space`."""

    base: np.ndarray
    p_prime: np.ndarray
    p_dprime: np.ndarray
    space: HermitianSpace

    def __post_init__(self):
        X = np.array([self.base, self.p_prime, self.p_dprime])
        L = np.linalg.norm(X, axis=1)
        if (np.abs(self.space.form(X[1:], X[0])) > 1e-8 * L[0] * L[1:]).any():
            raise GeometryError("chart points must lie on the polar line of base")
        if np.abs(cross(X[1], X[2])).max() <= 1e-12:
            raise GeometryError("chart points must be distinct")

    def values(self, V: np.ndarray) -> np.ndarray:
        """Vectorized chart on an array of representatives, shape (..., 3)."""
        num, den = (self.space.form(w, V) for w in (self.p_prime, self.p_dprime))
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den
