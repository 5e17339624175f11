"""Compressible barotropic Navier-Stokes on moving domains, desk scale.

Characteristics-based transport, Lagrangian-transformed momentum solves,
boundary-data extension, and energy / relative-energy diagnostics.

Import rule: modules import only numpy and ``scipy.sparse`` at top level. A
scipy subpackage that one call needs (``scipy.sparse.linalg``,
``scipy.spatial``, ``scipy.integrate``) is imported inside that call, so
importing the package and running a static-grid transport load none of them.
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
