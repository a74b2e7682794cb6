"""Verification toolkit for a family of complex hyperbolic lattice quotients.

The package builds, for each of thirteen integer triples (p, k, p'), the
matrices and polyhedron data attached to a two-parameter family of flat cone
metrics on the sphere, and machine checks group relations, vertex geometry,
collapse predicates, orbifold Euler characteristics and volumes.
"""

from dmlat.arithmetic import (
    PiRational,
    ExtOrder,
    sin_pi,
    cos_pi,
    projective_equal,
    projective_order,
    hermitian_eval,
    signature,
)
from dmlat.catalog import LatticeSignature, DerivedParams, catalog, derive_params, cone_angles
from dmlat.moves import Configuration, ConfiguredMap, hermitian_form, configurations_of

__all__ = [
    "PiRational",
    "ExtOrder",
    "sin_pi",
    "cos_pi",
    "projective_equal",
    "projective_order",
    "hermitian_eval",
    "signature",
    "LatticeSignature",
    "DerivedParams",
    "catalog",
    "derive_params",
    "cone_angles",
    "Configuration",
    "ConfiguredMap",
    "hermitian_form",
    "configurations_of",
]
