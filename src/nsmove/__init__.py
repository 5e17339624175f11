"""Compressible barotropic Navier-Stokes on moving domains, desk scale.

Characteristics-based transport, Lagrangian-transformed momentum solves,
boundary-data extension, and energy / relative-energy diagnostics.

Import rule: modules import only numpy and ``scipy.sparse``, with no
exception, so importing the package and running the moving-domain chain
load no scipy subpackage but ``scipy.sparse``.
"""

from . import errors
from .fields import Field, Grid, differentiate, interpolate, sobolev_norm

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Grid",
    "Field",
    "differentiate",
    "interpolate",
    "sobolev_norm",
    "__version__",
]
