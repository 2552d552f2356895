"""Exact Hecke-module computations on totally definite quaternion algebras.

The package computes, in exact arithmetic throughout (ints and Fractions,
never floats), the right ideal class set of a maximal order in the
totally definite quaternion algebra with no finite ramification over a
real quadratic field, the Brandt/Hecke operators acting on the associated
weight-2 space, their characteristic polynomials, eigensystems, and
dimension splits.
"""

__version__ = "0.1.0"
