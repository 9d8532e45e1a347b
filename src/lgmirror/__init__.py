"""Exact-arithmetic tools for the Landau-Ginzburg mirror of the Lagrangian Grassmannian.

The package builds the superpotential of LG(m) in generalized Pluecker
coordinates, evaluates it on factorized unipotent group elements by two
independent algorithms, checks every identity relating the quadratic
numerators/denominators to minors and to Clifford-algebra projections,
all over the integers and rationals, and runs the numerical
critical-point / quantum-cohomology spectrum comparison.  No command
computes in Q(sqrt2); the field `QSqrt2` and its ring constants `EXACT`
stay exported.
"""

from lgmirror.scalars import QSqrt2, EXACT

__all__ = ["QSqrt2", "EXACT"]
