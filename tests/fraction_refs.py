"""Fraction references for the integer lattice and matrix code.

The package builds matrices and quaternion lattices from integer rows
over one denominator only.  These helpers keep the Fraction
constructions the integer builders replaced: spans of rational vectors,
products of basis vectors by field and quaternion multiplication, and
determinants by rational elimination.  Tests state rational data through
them and check the integer builders against them.
"""

from fractions import Fraction

from quatforms.intmat import integral_rows
from quatforms.matrices import Matrix
from quatforms.quaternion import QuatLattice


def ref_matrix(rows):
    """The Matrix of rational rows (ints or Fractions)."""
    den, ints = integral_rows([[Fraction(v) for v in row] for row in rows])
    return Matrix(ints, den)


def fraction_rows(m):
    """The entries of a Matrix as Fractions."""
    return [[Fraction(v, m.den) for v in row] for row in m.rows]


def ref_det(rows):
    """Determinant of a square rational matrix by Fraction elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    return out


def ref_lattice(alg, vectors):
    """The lattice spanned by rational vectors of the algebra."""
    den, ints = integral_rows([[Fraction(c) for c in v] for v in vectors])
    return QuatLattice(alg, ints, den)


def ref_iscale(lat, ideal):
    """lat scaled by a field ideal: the span of the products x * v."""
    alg = lat.alg
    return ref_lattice(
        alg, [alg.fmul(x, v) for x in ideal.basis_vectors() for v in lat.basis_vectors()]
    )


def ref_conjugate(lat):
    alg = lat.alg
    return ref_lattice(alg, [alg.conj(v) for v in lat.basis_vectors()])


def ref_lmul(lat, x):
    alg = lat.alg
    return ref_lattice(alg, [alg.mul(x, v) for v in lat.basis_vectors()])


def ref_inverse(lat):
    """conj(lat) / nr(lat), from Fraction products."""
    return ref_iscale(ref_conjugate(lat), lat.nr_ideal().inverse())


def ref_disc_z(lat):
    """Determinant of the Gram of Tr_{F/Q}(trd(x * conj(y))) on the basis."""
    alg = lat.alg
    bs = lat.basis_vectors()
    return ref_det([[alg.base.trace(alg.pair(x, y)) for y in bs] for x in bs])
