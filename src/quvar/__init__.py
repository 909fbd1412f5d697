"""quvar: exact variance envelopes, contractive states, and measurement simulation.

Gaussian moment dynamics for free masses and harmonic oscillators, the
two-sided envelopes their position/momentum variances obey, the extremal
(maximally contractive / maximally expanding) states that saturate them, an
independent grid-wavefunction oracle, and a simulation of a repeated
back-action-evading position measurement protocol. The public names are
those of each module's ``__all__``.
"""

from .bounds import *
from .extremal import *
from .gaussian import *
from .gridsim import *
from .ozawa import *

__version__ = "0.1.0"
