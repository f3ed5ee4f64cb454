"""Spike-and-slab CAVI for linear regression with a local stability toolkit.

Sequential (Gauss-Seidel ordered) and parallel (Jacobi ordered) coordinate
ascent for the mean-field spike-and-slab posterior, plus analytic Jacobians,
spectral radii, and contraction diagnostics at their shared fixed points.
"""

__version__ = "0.1.0"
