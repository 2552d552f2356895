"""Fraction references for the integer lattice and matrix code.

The package builds matrices and quaternion lattices from integer rows
over one denominator only.  These helpers keep the Fraction
constructions the integer builders replaced: spans of rational vectors,
products of basis vectors by field and quaternion multiplication,
determinants by rational elimination, the Cholesky form of the short
vector walk, dense left multiplication matrices, coordinates over an
HNF basis by rational substitution (hnf_coords) and the HNF inverses and
lattice coordinates built on them, the quaternion product in closed form
(ref_mul), the structure table from it and the order test on basis
vectors, the lattice product over all products of basis rows
(ref_compose), the class set by isomorphism tests of every neighbor
(ref_class_set), the theta table by full enumeration of every cell, and
principal generators of field ideals by a brute-force search of a box
around the ellipse of trace forms up to a bound linear in the
fundamental unit (ref_principal_generator), and the class of a field
ideal by one principality test per representative (ref_narrow_class).
Tests state rational data through them and check the integer builders
against them.  The basis vectors of lattices and ideals (lattice_basis,
ideal_basis), the reduced trace form (ref_pair) and powers of field
elements (el_pow) are spelled out here from the package's own
primitives.
"""

import itertools
import math
from fractions import Fraction

from quatforms.classset import (
    _norm_coset_targets,
    eichler_mass,
    is_isomorphic,
    narrow_support,
    neighbors,
    unit_group,
)
from quatforms.intmat import int_product, integral_rows
from quatforms.latticetools import lll_gram
from quatforms.matrices import Matrix
from quatforms.quaternion import QuatLattice, norm_equation_solutions


def hnf_coords(hnf, vec, den=1):
    """Coordinates w with vec = w * hnf / den, by forward substitution.

    `hnf` holds integer echelon rows (hnf_rows output, or any rows whose
    first nonzero entries move strictly right).  `vec` holds ints or
    Fractions.  The coordinates are Fractions; all are integral exactly
    when vec lies in the lattice spanned by hnf / den.  Raises ValueError
    when vec is outside the rational span of the rows.
    """
    t = [Fraction(v) * den for v in vec]
    out = []
    last = -1
    for row in hnf:
        j = next((i for i, c in enumerate(row) if c), -1)
        if j <= last:
            raise ValueError("basis rows are not in echelon form")
        last = j
        c = t[j] / row[j]
        out.append(c)
        if c:
            for i in range(j, len(t)):
                t[i] -= c * row[i]
    if any(t):
        raise ValueError("vector outside the span of the basis rows")
    return out


def ref_mul(alg, x, y):
    """x * y in closed form from i^2 = a, j^2 = b, k = ij = -ji and the
    central field, in Fraction field arithmetic; independent of the
    structure table."""
    F = alg.base
    n = F.degree
    a, b = alg.a, alg.b
    ab = F.mul(a, b)
    x0, x1, x2, x3 = (tuple(Fraction(c) for c in x[q * n:(q + 1) * n]) for q in range(4))
    y0, y1, y2, y3 = (tuple(Fraction(c) for c in y[q * n:(q + 1) * n]) for q in range(4))
    m = F.mul
    z0 = F.sub(
        F.add(m(x0, y0), m(a, m(x1, y1))),
        F.sub(m(ab, m(x3, y3)), m(b, m(x2, y2))),
    )
    z1 = F.add(
        F.add(m(x0, y1), m(x1, y0)),
        m(b, F.sub(m(x3, y2), m(x2, y3))),
    )
    z2 = F.add(
        F.add(m(x0, y2), m(x2, y0)),
        m(a, F.sub(m(x1, y3), m(x3, y1))),
    )
    z3 = F.add(
        F.add(m(x0, y3), m(x3, y0)),
        F.sub(m(x1, y2), m(x2, y1)),
    )
    return z0 + z1 + z2 + z3


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


def lattice_basis(lat):
    """The basis rows / den of a quaternion lattice as ambient vectors:
    the lattice vectors of unit coordinates."""
    m = len(lat.rows)
    return [lat.vector([int(i == j) for j in range(m)]) for i in range(m)]


def ideal_basis(ideal):
    """The basis rows / den of a field ideal as Fraction elements."""
    return [tuple(Fraction(c, ideal.den) for c in r) for r in ideal.rows]


def ref_pair(alg, x, y):
    """trd(x * conj(y)), the trace form over the base field: twice the
    field block of the product."""
    F = alg.base
    return F.smul(2, alg.mul(x, alg.conj(y))[:F.degree])


def el_pow(F, x, k):
    """x^k for a field element x and k >= 0, by repeated products."""
    out = F.one
    for _ in range(k):
        out = F.mul(out, x)
    return out


def ref_principal_generator(F, a):
    """A generator of the field ideal a, or None, by a short-vector search.

    If a is principal, some generator, unit-balanced by rounding its log
    embeddings against the fundamental unit eps = u + v sqrt d, has trace
    of square at most 2 N M, N the norm of the numerator lattice and
    M = |u| + |v| sqrt d a bound of |eps| and |1/eps| at both embeddings.
    With eps = (s + t sqrt D)/2, 2 N M is N |s| + sqrt(N^2 t^2 D), rounded
    up here exactly.  The ellipse of the integral trace form up to it lies
    in a box on an LLL-reduced basis, |y_i|^2 <= bound g_jj / det g, and
    the box is searched whole.
    """
    (eps,) = F.fundamental_units
    rows = [F.el(r) for r in a.rows]
    target = abs(a.rows[0][0] * a.rows[1][1])
    s = target * target * int(eps[1]) ** 2 * F.disc
    r = math.isqrt(s)
    bound = target * abs(int(F.trace(eps))) + r + (r * r != s) + 1
    g, u = lll_gram([[int(F.trace(F.mul(bi, bj))) for bj in rows] for bi in rows])
    det = g[0][0] * g[1][1] - g[0][1] ** 2
    r0, r1 = (math.isqrt(bound * g[j][j] // det) for j in (1, 0))
    for y in itertools.product(range(-r0, r0 + 1), range(-r1, r1 + 1)):
        coords = [y[0] * u[0][k] + y[1] * u[1][k] for k in range(2)]
        x = F.zero
        for c, b in zip(coords, rows):
            x = F.add(x, F.smul(c, b))
        if abs(F.norm(x)) == target:
            return tuple(c / a.den for c in x)
    return None


def ref_narrow_class(a, inverses, generator):
    """The first i with generator(a * inverses[i]) not None, else None.

    With the inverses of class representatives and narrowly_principal_
    generator (principal_generator), the index of the narrow (wide) class
    of a: a r^-1 is narrowly principal exactly when a lies in the class of
    r.
    """
    return next((i for i, r in enumerate(inverses) if generator(a * r) is not None), None)


def ref_lattice(alg, vectors):
    """The lattice spanned by rational vectors of the algebra."""
    den, ints = integral_rows([[Fraction(c) for c in v] for v in vectors])
    return QuatLattice(alg, ints, den)


def ref_iscale(lat, ideal):
    """lat scaled by a field ideal: the span of the products x * v."""
    alg = lat.alg
    return ref_lattice(
        alg, [alg.fmul(x, v) for x in ideal_basis(ideal) for v in lattice_basis(lat)]
    )


def ref_compose(lat, other):
    """The lattice product as the span of all (4n)^2 products of basis
    rows, in one HNF: x * y = y M_x for the integer left multiplication
    matrix M_x of each integer row x."""
    alg = lat.alg
    rows = []
    for x in lat.rows:
        rows += int_product(other.rows, alg.left_matrix(x)[0])
    return QuatLattice(alg, rows, lat.den * other.den)


def ref_conjugate(lat):
    alg = lat.alg
    return ref_lattice(alg, [alg.conj(v) for v in lattice_basis(lat)])


def ref_lmul(lat, x):
    alg = lat.alg
    return ref_lattice(alg, [alg.mul(x, v) for v in lattice_basis(lat)])


def ref_inverse(lat):
    """conj(lat) / nr(lat), from Fraction products."""
    return ref_iscale(ref_conjugate(lat), lat.nr_ideal().inverse())


def ref_disc_z(lat):
    """Determinant of the Gram of Tr_{F/Q}(trd(x * conj(y))) on the basis."""
    alg = lat.alg
    bs = lattice_basis(lat)
    return ref_det([[alg.base.trace(ref_pair(alg, x, y)) for y in bs] for x in bs])


def ref_cholesky(gram):
    """(s, k, e, c) with s * Q(x) = sum_i k[i] (e[i] x_i + C_i(x))^2,
    C_i(x) = sum_{j>i} c[i][j] x_j, from the rational Cholesky
    coefficients of Q: e[i] clears the denominators of row i and s those
    of the k[i]."""
    n = len(gram)
    q = [[Fraction(v) for v in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ArithmeticError("form is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for r in range(i + 1, n):
            for c in range(r, n):
                q[r][c] -= q[r][i] * q[i][c]
    e = [math.lcm(*(q[i][j].denominator for j in range(i + 1, n)))
         for i in range(n)]
    kq = [q[i][i] / (e[i] * e[i]) for i in range(n)]
    s = math.lcm(*(v.denominator for v in kq))
    k = [int(v * s) for v in kq]
    c = [[0] * (i + 1) + [int(q[i][j] * e[i]) for j in range(i + 1, n)]
         for i in range(n)]
    return s, k, e, c


def ref_left_matrix(alg, x):
    """(M, d) of QuatAlgebra.left_matrix, from the dense structure table
    with every coordinate of x taken through Fraction."""
    d = math.lcm(*(Fraction(c).denominator for c in x))
    xs = [int(Fraction(c) * d) for c in x]
    table = alg.mul_table()
    N = alg.dim
    return [
        [sum(c * table[s][t][u] for s, c in enumerate(xs) if c) for u in range(N)]
        for t in range(N)
    ], d


def ref_inverse_rows(rows):
    """(adj, d) of intmat.inverse_rows, one Fraction hnf_coords per unit
    vector."""
    n = len(rows)
    d, adj = integral_rows(
        [hnf_coords(rows, [int(i == k) for i in range(n)]) for k in range(n)]
    )
    return adj, d


def ref_coords(lat, vec):
    """Fraction coordinates of vec over the basis rows of a lattice."""
    return hnf_coords(lat.rows, vec, lat.den)


def ref_mul_table(alg):
    """QuatAlgebra.mul_table from the closed-form products (ref_mul) of
    basis vectors."""
    N = alg.dim
    basis = [tuple(Fraction(int(s == t)) for t in range(N)) for s in range(N)]
    table = []
    for x in basis:
        row = []
        for y in basis:
            z = ref_mul(alg, x, y)
            if any(c.denominator != 1 for c in z):
                raise ArithmeticError("structure constants are not integral")
            row.append([int(c) for c in z])
        table.append(row)
    return table


def ref_is_order(lat):
    """is_order from Fraction basis vectors: 1 in the lattice, integral
    trd and nr on the basis, all products of basis vectors in it."""
    alg = lat.alg
    F = alg.base

    def contains(v):
        return all(c.denominator == 1 for c in ref_coords(lat, v))

    if not contains(alg.one):
        return False
    bs = lattice_basis(lat)
    # trd(x) = x + conj(x) is twice the field block of x
    if not all(F.is_integral(F.smul(2, x[:F.degree])) and F.is_integral(alg.nr(x)) for x in bs):
        return False
    return all(contains(alg.mul(x, y)) for x in bs for y in bs)


def ref_theta_entries(cs, bound):
    """compute_theta's entries by full enumeration.

    For every ordered pair of classes (a, b) and every prime, all
    solutions of the cell's norm equations over a * b^-1 are listed,
    sorted, per coset target, and grouped into orbits of left
    multiplication by the norm-one units of the left order of a, in
    Fraction products; the first solution of each orbit, its least, is
    the witness.  A cell is searched whenever its ideal has a totally
    positive generator.
    """
    alg = cs.order.alg
    F = alg.base
    reps = cs.representatives
    primes = F.prime_ideals_up_to(bound)
    entries = {}
    for bi, b in enumerate(reps):
        for ai, a in enumerate(reps):
            G = cs.unit_groups[ai]
            units = [g for g, e in zip(G.elements, G.norms) if e == F.one]
            L = a.compose(b.inverse())
            for pi, pr in enumerate(primes):
                J = a.nr_ideal() * pr.ideal * b.nr_ideal().inverse()
                beta = F.narrowly_principal_generator(J)
                if beta is None:
                    continue
                xs = []
                for e in _norm_coset_targets(alg, G):
                    seen = set()
                    for x in norm_equation_solutions(L, F.mul(beta, e)):
                        if x in seen:
                            continue
                        xs.append(x)
                        for g in units:
                            y = alg.mul(g, x)
                            if next(v for v in y if v) < 0:
                                y = tuple(-v for v in y)
                            seen.add(y)
                if xs:
                    entries[(pi, ai, bi)] = xs
    return entries


def ref_class_set(R):
    """(representatives, left orders, unit groups) of the neighbor walk
    that classifies each neighbor by isomorphism tests: breadth first
    over the representatives and the narrow support primes (the smallest
    split prime when that is empty and one class is not the mass), each
    neighbor not isomorphic to a known representative is a new one, until
    the unit masses sum to the Eichler mass."""
    F = R.alg.base
    target = eichler_mass(F)
    reps, lefts, units = [R], [R], [unit_group(R)]
    mass = Fraction(1, units[0].order)
    support = narrow_support(F)
    if not support and mass != target:
        support = [next(p for p in F.primes_by_norm() if p.f == 1 and p.e == 1)]
    pending = [(0, p) for p in support]
    while mass != target:
        ci, p = pending.pop(0)
        for c in neighbors(reps[ci], p):
            if any(is_isomorphic(a, c) is not None for a in reps):
                continue
            reps.append(c)
            lefts.append(c.left_order())
            units.append(unit_group(lefts[-1]))
            mass += Fraction(1, units[-1].order)
            pending += [(len(reps) - 1, q) for q in support]
            if mass == target:
                break
    return reps, lefts, units
