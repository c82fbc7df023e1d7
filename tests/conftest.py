import sys

import pytest
from hypothesis import settings

from uavrelay import (
    HopEnvironment,
    LinkGeometry,
    RadioConfig,
    RicianEndpoints,
    link_budget,
)

# Property tests draw the same examples on every run and write no example
# database into the checkout.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


def count_sign_changes(values):
    """Sign changes of successive differences, ignoring rounding ties.

    Differences within a few ulps of the neighboring magnitudes carry no
    shape information (the saturated tail of an outage curve sits within
    1e-15 of 1, below what double precision can order), so they are treated
    as flat.
    """
    eps = sys.float_info.epsilon
    signs = []
    for prev, nxt in zip(values, values[1:]):
        diff = nxt - prev
        if abs(diff) > 8.0 * eps * max(abs(prev), abs(nxt)):
            signs.append(1 if diff > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

# Reference system parameters used throughout the suite.
TABLE1 = {
    "env_su": HopEnvironment(a=0.28, b=9.6, eta_los_db=1.0, eta_nlos_db=20.0),
    "env_ud": HopEnvironment(a=0.136, b=11.95, eta_los_db=1.6, eta_nlos_db=23.0),
    "rician": RicianEndpoints(k0_db=5.0, kpi2_db=15.0),
}


def make_radio(total_power_w=0.25, rate=1.0):
    return RadioConfig(
        f_c=2000e6,
        n=3.0,
        noise_power_dbm=-110.0,
        rate=rate,
        total_power_w=total_power_w,
    )


def make_budget(L=2000.0, h_u=1000.0, convention="paper", radio=None):
    """Reference-parameter link budget; the paper-literal excess-loss
    convention is the regime the published sweeps live in."""
    return link_budget(
        LinkGeometry.midpoint(h_u, L),
        TABLE1["env_su"],
        TABLE1["env_ud"],
        TABLE1["rician"],
        TABLE1["rician"],
        radio or make_radio(),
        convention,
    )


def make_symmetric_budget(radio=None):
    """Identical environments and legs on both hops."""
    return link_budget(
        LinkGeometry.midpoint(1000.0, 2000.0),
        TABLE1["env_su"],
        TABLE1["env_su"],
        TABLE1["rician"],
        TABLE1["rician"],
        radio or make_radio(),
        "paper",
    )


@pytest.fixture
def radio():
    return make_radio()


@pytest.fixture
def table1_budget():
    return make_budget()


@pytest.fixture
def symmetric_budget():
    return make_symmetric_budget()
