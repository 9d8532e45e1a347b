"""Exact-arithmetic tools for the Landau-Ginzburg mirror of the Lagrangian Grassmannian.

The package builds the superpotential of LG(m) in generalized Pluecker
coordinates over the exact field Q(sqrt2), evaluates it on factorized
unipotent group elements by two independent algorithms, checks every
identity relating the quadratic numerators/denominators to minors and to
Clifford-algebra projections, and runs the numerical critical-point /
quantum-cohomology spectrum comparison.
"""

from lgmirror.scalars import QSqrt2, EXACT

__all__ = ["QSqrt2", "EXACT"]
