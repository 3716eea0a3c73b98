"""The symmetric level function of the level-sets figure.

The Giraud tori of pairs of bisectors are read from closed forms: TF's
margin is `family.exclusion_margin` (tests/test_tf_margin_identities.py),
and the spinal-trace figure draws the torus of J_0^- and J_-1^- from its
proved forms.  The column stage that formed a torus's forms from its row
array is the test oracle `column_forms` in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np


def level_g(theta, phi):
    """The symmetric level function cos(theta) + cos(phi) + cos(phi - theta)."""
    return np.cos(theta) + np.cos(phi) + np.cos(phi - theta)
