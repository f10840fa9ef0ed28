"""Stationary Gaussian fields from atomic planar spectral measures.

Submodules: measures (spectral measures and their pair tables), fields (exact
trigonometric sampling), topology (nodal censuses on squares and the torus),
kacrice (closed-form zero densities), arithmetic (lattice circles and toral
waves), estimators (Monte Carlo nodal-count asymptotics), stability (coupled
sampling and perturbation sandwiches), portraits (SVG/PPM zero-set plots),
cli (command-line front end).
"""

__version__ = "0.1.0"

from .errors import NodalError  # noqa: F401
from .measures import SpectralMeasure, make_atomic, preset  # noqa: F401
from .fields import FieldSample, sample, evaluate_grid  # noqa: F401
