"""Outage probability and power allocation for a dual-hop UAV relay link.

The library models a base station talking to a ground user through a
decode-and-forward UAV relay over Rician fading. It provides the
air-to-ground link budget, a closed-form end-to-end outage probability,
an approximate and an exact optimizer for the transmit power split, and
a seeded Monte Carlo simulator used to validate the closed form.
"""

__version__ = "0.1.0"

from . import channel, mcsim, optimizer, outage, specfun
from .channel import *
from .mcsim import *
from .optimizer import *
from .outage import *
from .specfun import *

__all__ = [
    "__version__", *channel.__all__, *mcsim.__all__, *optimizer.__all__, *outage.__all__, *specfun.__all__,
]
