"""Numerical laboratory for the torsion problem on rotationally symmetric
surfaces: closed-form radial solutions, a boundary-fitted finite-difference
solver, integral identity checks, and shape optimization of the
constant-Neumann deviation.

The package namespace is the ordered union of the module ``__all__``s.
"""

from . import closed_form, discretization, functionals, geometry, rigidity
from .geometry import *
from .closed_form import *
from .discretization import *
from .functionals import *
from .rigidity import *

__version__ = "0.1.0"

__all__ = list(dict.fromkeys(
    name for module in (geometry, closed_form, discretization, functionals, rigidity)
    for name in module.__all__
))
