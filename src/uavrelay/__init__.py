"""Outage probability and power allocation for a dual-hop UAV relay link.

The library models a base station talking to a ground user through a
decode-and-forward UAV relay over Rician fading. It provides the
air-to-ground link budget, a closed-form end-to-end outage probability,
an approximate and an exact optimizer for the transmit power split, and
a seeded Monte Carlo simulator used to validate the closed form.
"""

__version__ = "0.1.0"

from .channel import (
    HopEnvironment,
    LinkBudget,
    LinkGeometry,
    RadioConfig,
    RicianEndpoints,
    elevation_angle,
    link_budget,
    p_los,
    path_gain_excess,
    rician_k,
)
from .mcsim import OutageEstimate, SimSpec, estimate_outage, sample_rician_power
from .optimizer import (
    AllocationResult,
    BracketError,
    SolverConfig,
    Theorem1Constants,
    equal_power,
    minimize_outage_exact,
    outage_gradient_ps,
    solve_theorem1,
    theorem1_constants,
    theorem1_residual,
)
from .outage import (
    PowerSplit,
    end_to_end_outage,
    end_to_end_outage_grid,
    hop_capacity,
    hop_outage,
    snr_threshold,
)
from .specfun import (
    bessel_i_n,
    marcum_q1,
    marcum_q1_partial_a,
    marcum_q1_partial_b,
)

__all__ = [
    "__version__",
    "AllocationResult",
    "BracketError",
    "HopEnvironment",
    "LinkBudget",
    "LinkGeometry",
    "OutageEstimate",
    "PowerSplit",
    "RadioConfig",
    "RicianEndpoints",
    "SimSpec",
    "SolverConfig",
    "Theorem1Constants",
    "bessel_i_n",
    "elevation_angle",
    "end_to_end_outage",
    "end_to_end_outage_grid",
    "equal_power",
    "estimate_outage",
    "hop_capacity",
    "hop_outage",
    "link_budget",
    "marcum_q1",
    "marcum_q1_partial_a",
    "marcum_q1_partial_b",
    "minimize_outage_exact",
    "outage_gradient_ps",
    "p_los",
    "path_gain_excess",
    "rician_k",
    "sample_rician_power",
    "snr_threshold",
    "solve_theorem1",
    "theorem1_constants",
    "theorem1_residual",
]
