"""Verification toolkit for a family of complex hyperbolic lattice quotients.

The package builds, for each of thirteen integer triples (p, k, p'), the
matrices and polyhedron data attached to a two-parameter family of flat cone
metrics on the sphere, and machine checks group relations, vertex geometry,
collapse predicates, orbifold Euler characteristics and volumes.

The package namespace is empty, so that importing one module loads only what
that module imports: import each name from its submodule, such as
``dmlat.catalog`` or ``dmlat.verification``.
"""
