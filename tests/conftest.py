import numpy as np
import pytest

from crlab.core import siegel_model
from crlab.family import ALPHA2_LIM, FamilyParams, FamilyRep, alpha2_for_order
from crlab.reference import ball_model, remarkable_points


@pytest.fixture(scope="session")
def siegel():
    return siegel_model()


@pytest.fixture(scope="session")
def ball():
    return ball_model()


@pytest.fixture(scope="session")
def rep07():
    return FamilyRep(FamilyParams(0.0, 0.7))


@pytest.fixture(scope="session")
def pts07(rep07):
    return remarkable_points(rep07.params)


@pytest.fixture(scope="session")
def rep_n9():
    return FamilyRep(FamilyParams(0.0, alpha2_for_order(9)))


@pytest.fixture(scope="session")
def pts_n9(rep_n9):
    return remarkable_points(rep_n9.params)


@pytest.fixture(scope="session")
def rep_lim():
    return FamilyRep(FamilyParams(0.0, ALPHA2_LIM))


def sample_alpha2(count, lo=0.15, hi=1.45, seed=7):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lo, hi, count)
    return [float(v) for v in vals]
