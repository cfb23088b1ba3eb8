"""Equilibria of strongly coupled Frenkel-Kontorova chains.

Constructs equilibrium configurations of generalized Frenkel-Kontorova
models in the strong-coupling regime by a certified contraction, verifies
their linear hyperbolicity through invariant cone fields, and exposes the
associated twist-map orbits. See the README for the command-line
interface.
"""

from . import errors, hyperbolicity, interactions, lattice, potentials, solver
from .errors import *
from .hyperbolicity import *
from .interactions import *
from .lattice import *
from .potentials import *
from .solver import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, hyperbolicity, interactions, lattice,
                               potentials, solver) for name in module.__all__]
