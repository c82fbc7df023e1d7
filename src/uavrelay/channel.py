"""Air-to-ground channel model: geometry, LoS-mixed path gain, Rician K factor.

Each hop (base station to UAV, UAV to ground user) sees a slant-distance
power-law path gain whose excess loss is mixed between line-of-sight and
non-line-of-sight conditions by an elevation-dependent sigmoid probability,
plus a Rician small-scale factor that grows exponentially with elevation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SPEED_OF_LIGHT",
    "EXCESS_LOSS_CONVENTIONS",
    "LinkGeometry",
    "HopEnvironment",
    "RicianEndpoints",
    "RadioConfig",
    "LinkBudget",
    "elevation_angle",
    "path_gain_excess",
    "p_los",
    "rician_k",
    "link_budget",
]

SPEED_OF_LIGHT = 299_792_458.0

#: ``standard`` treats the excess loss as an attenuation of eta dB, i.e. a
#: factor 10^(-eta/10). ``paper`` applies the literal factor 2^(10/eta) so the
#: originally published model can be reproduced.
EXCESS_LOSS_CONVENTIONS = ("standard", "paper")


@dataclass(frozen=True)
class LinkGeometry:
    """Relay geometry in meters: UAV altitude, the horizontal distance r_s
    from the base station to the relay, and the end-to-end ground distance L.
    """

    h_u: float
    r_s: float
    L: float

    def __post_init__(self):
        if not self.h_u > 0.0:
            raise ValueError("UAV altitude h_u must be positive")
        if not 0.0 <= self.r_s <= self.L:
            raise ValueError("relay distance r_s must lie in [0, L]")

    @classmethod
    def midpoint(cls, h_u: float, L: float) -> "LinkGeometry":
        """Relay deployed halfway between the endpoints."""
        return cls(h_u=h_u, r_s=0.5 * L, L=L)

    @property
    def r_d(self) -> float:
        """Horizontal distance from the relay to the ground user."""
        return self.L - self.r_s


@dataclass(frozen=True)
class HopEnvironment:
    """LoS-probability sigmoid shape (a, b) and excess losses for one hop.

    a is dimensionless, b is per radian; eta values are in dB with the NLoS
    excess strictly above the LoS excess.
    """

    a: float
    b: float
    eta_los_db: float
    eta_nlos_db: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("sigmoid parameters a, b must be positive")
        if not self.eta_nlos_db > self.eta_los_db > 0.0:
            raise ValueError("excess losses must satisfy eta_nlos > eta_los > 0")


@dataclass(frozen=True)
class RicianEndpoints:
    """Rician K factor in dB at elevation 0 and at elevation pi/2."""

    k0_db: float
    kpi2_db: float

    def __post_init__(self):
        if self.kpi2_db < self.k0_db:
            raise ValueError("K at pi/2 must be at least K at zenith angle 0")
        if self.k0_db < 0.0 and 10.0 ** (self.k0_db / 10.0) == 0.0:
            raise ValueError("K at zenith angle 0 must be above about -3233 dB, where 10^(k0_db/10) underflows")


@dataclass(frozen=True)
class RadioConfig:
    """Carrier, propagation exponent, noise, target rate, and power budget.

    f_c is in Hz, noise power in dBm, rate in bits/s/Hz, total power in
    watts. The rate must be positive and below 512, where its outage SNR
    threshold 2^(2R) - 1 overflows, and large enough (R >~ 8e-17) that the
    threshold does not round to 0; the noise power must be positive and
    finite in watts.
    """

    f_c: float
    n: float
    noise_power_dbm: float
    rate: float
    total_power_w: float

    def __post_init__(self):
        omega = 4.0 * math.pi * self.f_c
        if not (self.f_c > 0.0 and omega * omega > 0.0):
            raise ValueError("carrier frequency f_c must be positive, with a (4 pi f_c)^2 that does not underflow")
        if self.n < 2.0:
            raise ValueError("path-loss exponent must be at least 2")
        if self.rate >= 512.0:
            raise ValueError("rate must be below 512 bits/s/Hz, where 2^(2R) overflows")
        if not 2.0 ** (2.0 * self.rate) - 1.0 > 0.0:
            raise ValueError("rate must be positive, with an SNR threshold 2^(2R) - 1 that does not round to 0")
        if self.total_power_w <= 0.0:
            raise ValueError("total power budget must be positive")
        try:
            noise = self.noise_power_w
        except OverflowError:
            noise = math.inf
        if not 0.0 < noise < math.inf:
            raise ValueError("noise power must be positive and finite in watts")

    @property
    def noise_power_w(self) -> float:
        return 10.0 ** ((self.noise_power_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    """Per-hop mean path gain (linear power ratio) and linear Rician factor.

    K lies in [1e-150, 1e150] (within 1500 dB of 0 dB), so that K (K + 1)
    and the Marcum noncentrality a b stay finite (a = sqrt(2K) <= 1.5e75,
    and a finite b is below 1.4e154), and the ratio of the two hops' K is a
    positive double.
    """

    g_su: float
    g_ud: float
    k_su: float
    k_ud: float

    def __post_init__(self):
        if not all(0.0 < g < 1.0 for g in (self.g_su, self.g_ud)):
            raise ValueError("mean path gains must lie in (0, 1)")
        if not all(1e-150 <= k <= 1e150 for k in (self.k_su, self.k_ud)):
            raise ValueError("Rician factors must lie in [1e-150, 1e150], i.e. within 1500 dB of 0 dB")


def elevation_angle(h: float, r: float) -> float:
    """Elevation angle arctan(h / r) in radians; pi/2 when r = 0."""
    if h <= 0.0:
        raise ValueError("altitude must be positive")
    if r < 0.0:
        raise ValueError("horizontal distance must be non-negative")
    return math.atan2(h, r)


def _excess_factor(eta_db: float, convention: str) -> float:
    if convention == "standard":
        return 10.0 ** (-eta_db / 10.0)
    if convention == "paper":
        return 2.0 ** (10.0 / eta_db)
    raise ValueError(f"unknown excess-loss convention {convention!r}")


def path_gain_excess(
    d: float, eta_db: float, radio: RadioConfig, convention: str = "standard"
) -> float:
    """Mean path gain over slant distance d with excess loss eta_db applied.

    The distance kernel is c^2 * d^(-n) / (4*pi*f_c)^2; the excess factor
    depends on the selected convention (see EXCESS_LOSS_CONVENTIONS).
    """
    if d <= 0.0:
        raise ValueError("distance must be positive")
    kernel = SPEED_OF_LIGHT**2 * d ** (-radio.n) / (4.0 * math.pi * radio.f_c) ** 2
    return kernel * _excess_factor(eta_db, convention)


def p_los(theta: float, a: float, b: float) -> float:
    """Line-of-sight probability 1 / (1 + a*exp(-b*(theta - a))).

    theta is in radians; the result is strictly inside (0, 1) and strictly
    increasing in theta for b > 0.
    """
    return 1.0 / (1.0 + a * math.exp(-b * (theta - a)))


def rician_k(theta: float, endpoints: RicianEndpoints) -> float:
    """Linear Rician factor K0 * exp((2/pi) * ln(Kpi2/K0) * theta).

    Endpoints are converted from dB to linear before the exponential model is
    applied, so K runs from K0 at theta = 0 to Kpi2 at theta = pi/2.
    """
    k0 = 10.0 ** (endpoints.k0_db / 10.0)
    kpi2 = 10.0 ** (endpoints.kpi2_db / 10.0)
    return k0 * math.exp((2.0 / math.pi) * math.log(kpi2 / k0) * theta)


def _hop_budget(
    h: float,
    r: float,
    env: HopEnvironment,
    endpoints: RicianEndpoints,
    radio: RadioConfig,
    convention: str,
) -> tuple[float, float]:
    theta = elevation_angle(h, r)
    d = math.hypot(h, r)
    prob_los = p_los(theta, env.a, env.b)
    gain_los = path_gain_excess(d, env.eta_los_db, radio, convention)
    gain_nlos = path_gain_excess(d, env.eta_nlos_db, radio, convention)
    gain = prob_los * gain_los + (1.0 - prob_los) * gain_nlos
    return gain, rician_k(theta, endpoints)


def link_budget(
    geom: LinkGeometry,
    env_su: HopEnvironment,
    env_ud: HopEnvironment,
    endpoints_su: RicianEndpoints,
    endpoints_ud: RicianEndpoints,
    radio: RadioConfig,
    convention: str = "standard",
) -> LinkBudget:
    """Mean path gain and Rician factor for both hops of the relay link.

    The mean gain of each hop is the LoS/NLoS gain mixture weighted by the
    elevation-dependent LoS probability. A symmetric configuration (equal
    legs, identical environments and endpoints) yields bitwise-equal hops.
    """
    g_su, k_su = _hop_budget(geom.h_u, geom.r_s, env_su, endpoints_su, radio, convention)
    g_ud, k_ud = _hop_budget(geom.h_u, geom.r_d, env_ud, endpoints_ud, radio, convention)
    return LinkBudget(g_su=g_su, g_ud=g_ud, k_su=k_su, k_ud=k_ud)
