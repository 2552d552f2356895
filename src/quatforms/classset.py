"""Right ideal classes of a maximal quaternion order and their Brandt data.

The class set and the neighbor tables that feed Brandt matrices come
from one walk over Brandt columns.  The p-neighbors of b in the class of
a are the solutions of one norm equation over a * b^-1, counted modulo
left multiplication by the units of the left order of a; each solution u
gives the neighbor u^-1 a.  That solution set is also stable under right
multiplication by the units of the left order of b, so one solution
gives every neighbor of its double coset.  A column (b, p) is filled one
cell at a time in class order, drawing solutions lazily from the norm
equation walks of its cells, and it stops at Np + 1 neighbors.

compute_class_set fills the columns at the support primes over the
classes found so far; a column short of Np + 1 neighbors has a neighbor
in a new class, the first neighbor lattice that no witness gives.  The
walk is certified complete by the exact Eichler mass, and it keeps the
columns it closed for compute_theta, which fills the columns at the
other primes.  Free and disjoint unit orbits, a bound of Np + 1 on every
column, one containment check L * b in a per pair of classes, a norm
check of every witness, and column sums of exactly Np + 1 certify the
table.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .arith import factor_int
from .intmat import echelon_coords, hnf_rows, identity_int, int_product, integral_rows
from .numberfield import PrimeIdeal
from .quaternion import QuatLattice, iter_norm_equation_coords, norm_equation_solutions
from .residue import (
    FiniteField,
    LatticeQuotient,
    MatrixSplitting,
    QuotientSpace,
    in_span_mod,
    matmul_mod,
    span_basis_mod,
    subalgebra,
)


class ResidueSplitting:
    """R/qR = M_2(k) for an order R and a prime q of the base field, and
    the reduction of elements integral at q into 2x2 matrices over k.

    quo is the quotient R/qR with its algebra, k the residue field as log
    tables, split the isomorphism onto 2x2 matrices over k and lam the
    reduction map as an F_p-matrix: row i holds the four entries of the
    image of the i-th basis row of R, each as f coordinates over k.  So
    reducing an element is one integer product with the inverse of R's
    basis and one with lam.  Reduction accepts any element that is
    integral at q: a field multiplier congruent to 1 there clears
    denominators supported away from it.  Unit group elements and theta
    witnesses are of this kind, their norms being units or neighbor
    steps at q.  Multipliers are kept per denominator, and root counts
    of fixed_points per (trace, determinant).
    """

    def __init__(self, order, prime, quo, k, split, lam):
        self.order, self.prime = order, prime
        self.quo, self.k, self.split, self.lam = quo, k, split, lam
        self._mult_cache = {}
        self._root_counts = {}

    def _one_mod_prime(self, d):
        """A field element t of J = (d) / gcd((d), prime-part) with t = 1
        modulo the prime q.

        J is integral and coprime to q, so some element m of J is a unit
        mod q, and t = m s with s a rational integer inverse to m mod q.
        The HNF rows of q, of norm l^f, are ((l, 0), (0, l)) when f = 2,
        and ((l, 0), (0, 1)) or ((1, a), (0, l)) when f = 1.  When f = 1,
        O/q = Z/l and omega = r mod q, with r = 0 or 1 + a r = 0 mod l, so
        m is a basis row j of J outside q.  When f = 2, q = l O and m is
        the rational integer N(j) = j conj(j) of such a row, prime to l.
        """
        if d in self._mult_cache:
            return self._mult_cache[d]
        F = self.order.alg.base
        q = self.prime
        J = F.ideal(d)
        v = J.valuation(q)
        if v:
            J = J * q.inverse() ** v
        if J.den != 1:
            raise ArithmeticError("multiplier ideal is not integral")
        (a0, a1), (_, a2) = q.rows
        ell = max(a0, a2)
        r = -pow(a1, -1, ell) if a0 == 1 else 0
        cands = J.rows if a0 != a2 else [(int(F.norm(F.el(j))), 0) for j in J.rows]
        m = next((m for m in cands if (m[0] + m[1] * r) % ell), None)
        if m is None:
            raise ArithmeticError("multiplier ideal is not coprime to the prime")
        s = pow(m[0] + m[1] * r, -1, ell)
        t_el = F.el((s * m[0], s * m[1]))
        self._mult_cache[d] = t_el
        return t_el

    def _clear(self, denoms, x):
        """x times a multiplier t = 1 mod the prime that clears the
        denominators denoms (x itself when there are none).

        Certificate: 1 - t lies in the prime, else ArithmeticError.
        """
        d = lcm(*denoms)
        if d == 1:
            return x
        alg = self.order.alg
        t_el = self._one_mod_prime(d)
        if not self.prime.contains(alg.base.sub(alg.base.one, t_el)):
            raise ArithmeticError("multiplier is not congruent to 1 modulo the prime")
        return alg.fmul(t_el, x)

    def _coords(self, x):
        """(num, q) with num[i] / q the coordinates of x over the order's basis."""
        R = self.order
        adj, rho = R._inverse()
        dx, (ix,) = integral_rows([x])
        return [c * R.den for c in int_product([ix], adj)[0]], dx * rho

    def reduce(self, x):
        """2x2 matrix of residue field codes of an element integral at the prime."""
        num, q = self._coords(x)
        cleared = self._clear([q // gcd(q, c) for c in num], x)
        if cleared is not x:
            num, q = self._coords(cleared)
        if any(c % q for c in num):
            raise ValueError("element is not integral at the prime")
        k = self.k
        image = [v % k.p for v in int_product([[c // q for c in num]], self.lam)[0]]
        f = k.f
        a, b, c, d = (k.code(image[t:t + f]) for t in range(0, 4 * f, f))
        return ((a, b), (c, d))

    def reduce_scalar(self, c):
        """Residue field code of a field element integral at the prime: the
        diagonal entry of its image, a scalar matrix."""
        return self.reduce(self.order.alg.el(c))[0][0]

    def fixed_points(self, m):
        """Number of points of P^1(k) that the 2x2 matrix m fixes.

        A scalar fixes all Nq + 1 points.  Any other matrix fixes its
        eigenlines, one per distinct root in k of x^2 - tr x + det, since
        each eigenvalue of a non-scalar matrix has a 1-dimensional
        eigenspace.
        """
        k = self.k
        (a, b), (c, d) = m
        if not b and not c and a == d:
            return k.q + 1
        key = (k.add(a, d), k.sub(k.mul(a, d), k.mul(b, c)))
        if key not in self._root_counts:
            tr, det = key
            self._root_counts[key] = sum(
                not k.add(k.sub(k.mul(x, x), k.mul(tr, x)), det) for x in range(k.q)
            )
        return self._root_counts[key]


def split_residue_matrix(R, prime):
    """The splitting of R at prime, built once per (order, prime) pair
    and kept in R._splits, which only this function reads.

    The neighbor walk reads its quotient and matrix splitting, and the
    level layer (heckespace) reduces elements through it.  k is the
    image of the base ring, on the rref basis of the images of its
    integral basis; the idempotent search draws from one fixed random
    stream, so the splitting is the same on every run.
    """
    ideal, ell, f = _prime_parts(prime)
    if ideal in R._splits:
        return R._splits[ideal]
    alg = R.alg
    pR = R.iscale(ideal)
    quo = LatticeQuotient(R.rows, R.den, pR.rows, pR.den, ell, alg.sparse_table())
    A = quo.algebra
    units = identity_int(alg.dim)
    # the first n ambient basis vectors are the integral basis of the field
    k_rows = span_basis_mod([quo.proj(e) for e in units[:alg.base.degree]], ell)
    if len(k_rows) != f:
        raise ArithmeticError("residue field image has wrong dimension")
    split = MatrixSplitting(A, k_rows)
    lam = tuple(
        tuple(c for row in split.image(quo.reduce(e)) for entry in row for c in entry)
        for e in units
    )
    k = FiniteField(subalgebra(A, k_rows, A.one))
    R._splits[ideal] = ResidueSplitting(R, ideal, quo, k, split, lam)
    return R._splits[ideal]


def eichler_mass(F):
    """Mass of the maximal order class set: 2^(1-n) |zeta_F(-1)| h_F.

    Valid for the everywhere unramified totally definite algebra, which
    is the only kind this package constructs; finite ramification would
    contribute local factors.
    """
    if F.zeta_minus_one is None or F.class_number is None:
        raise ValueError("field context lacks zeta or class number data")
    return abs(F.zeta_minus_one) * F.class_number / Fraction(2 ** (F.degree - 1))


def _prime_parts(p):
    """(ideal, residue characteristic, residue degree) for a prime input."""
    if isinstance(p, PrimeIdeal):
        return p.ideal, p.p, p.f
    nrm = p.norm()
    if nrm.denominator != 1:
        raise ValueError("not an integral ideal")
    fac = factor_int(int(nrm))
    if len(fac) != 1:
        raise ValueError("ideal norm is not a prime power")
    ((ell, f),) = fac.items()
    return p, ell, f


def neighbors(b, p):
    """The Np+1 right ideals c containing b with nr(b) = nr(c) * p.

    c/b runs over the simple right submodules of the residue module
    V = (p^-1 b)/b, located by pulling back the projective line over the
    residue field through the splitting of R/pR (split_residue_matrix).
    R acts on V by F_p-matrices of right multiplication, read off the
    integer structure table.

    Each neighbor is the preimage of the right R-submodule w R of V, R
    the right order of b, so it is a right R-module.  R is maximal, so
    it is the neighbor's right order, which is set on the result.
    """
    alg = b.alg
    ideal, ell, f = _prime_parts(p)
    npn = ell ** f
    R = b.right_order()
    res = split_residue_matrix(R, ideal)

    big = b.iscale(ideal.inverse())
    V = QuotientSpace(big.rows, big.den, b.rows, b.den, ell)
    if V.dim != 4 * f:
        raise ArithmeticError("residue module does not have dimension 4 f")
    # right multiplication by the basis rows of R; this is well defined
    # on V because b * R = b
    acts = V.right_action(alg.sparse_table(), R.rows, R.den)
    lifted = [acts[pos] for pos in res.quo.positions]

    def right_matrix(a):
        # right multiplication by the lift to R of a, in R/pR coordinates
        return [
            [sum(c * m[i][j] for c, m in zip(a, lifted)) % ell for j in range(V.dim)]
            for i in range(V.dim)
        ]

    def times(v, m):
        return matmul_mod((v,), m, ell)[0]

    corner = span_basis_mod(right_matrix(res.split.e[0]), ell)
    if len(corner) != 2 * f:
        raise ArithmeticError("corner module has unexpected dimension")

    # split corner into two k-lines: corner = k*w1 + k*w2, with g1 and g2
    # the images of w1 and w2 under the basis of k
    k_mats = [right_matrix(r) for r in res.split.k_basis]
    w1 = corner[0]
    g1 = [times(w1, m) for m in k_mats]
    w2 = next(w for w in corner if not in_span_mod(g1, w, ell))
    g2 = [times(w2, m) for m in k_mats]

    # b and the lifts of V lie over the denominators b.den and big.den
    den = lcm(b.den, big.den)
    base = [[c * (den // b.den) for c in row] for row in b.rows]
    # the point of P^1(k) with index i is (1 : y), y the i-th element of
    # k, for i < Nq, and (0 : 1) for i = Nq (residue.p1_act)
    k = res.k
    lines = [k.coords(1) + k.coords(y) for y in k.elements()] + [k.coords(0) + k.coords(1)]
    out = []
    for xy in lines:
        w = times(xy, g1 + g2)
        u_rows = span_basis_mod([times(w, m) for m in acts], ell)
        if len(u_rows) != 2 * f:
            raise ArithmeticError("cyclic submodule has unexpected dimension")
        lifts = [[c * (den // big.den) for c in V.lift(u)] for u in u_rows]
        lat = QuatLattice(alg, base + lifts, den)
        if b.covolume() / lat.covolume() != npn ** 2:
            raise ArithmeticError("neighbor does not have index Np^2 over b")
        lat._right = R
        out.append(lat)
    if len(set(out)) != npn + 1:
        raise ArithmeticError("neighbors are not Np + 1 distinct lattices")
    return out


def is_isomorphic(a, b):
    """A witness u with a = u * b as right ideals, or a certified None.

    The class of the reduced norm in the narrow class group is an
    isomorphism invariant and filters first.  When it passes, any witness
    can be scaled by a base unit so that its reduced norm is beta * e for
    beta one fixed totally positive generator of nr(a)/nr(b) and e one of
    the finitely many totally positive units mod squares, so searching
    those norm equations over a * b^-1 is exhaustive.

    The pipeline makes no call to it, since the walk identifies classes
    by their Brandt witnesses: it is the tests' class test, independent of
    the walk, and a tracing target of benchmarks/tracing.py.
    """
    alg = a.alg
    F = alg.base
    if a.right_order() != b.right_order():
        raise ValueError("ideals do not share a right order")
    if a == b:
        return alg.one
    beta = F.narrowly_principal_generator(a.nr_ideal() * b.nr_ideal().inverse())
    if beta is None:
        return None
    L = a.compose(b.inverse())
    for e in F.totally_positive_units():
        sols = norm_equation_solutions(L, F.mul(beta, e))
        if sols:
            u = sols[0]
            if b.lmul_element(u) != a:
                raise ArithmeticError("isomorphism witness does not map b onto a")
            return u
    return None


@dataclass
class UnitGroup:
    """Unit group of an order modulo the units of the base ring.

    elements holds one representative per coset; order is its size.
    norms[i] is the reduced norm of elements[i], one of the totally
    positive unit representatives of the base field.
    """

    elements: list
    order: int
    norms: list


def unit_group(O):
    """Units of the order O modulo base ring units.

    Every coset contains an element whose reduced norm equals one of the
    totally positive unit representatives on the nose, unique up to
    sign.  The representatives are distinct modulo unit squares, so the
    solutions of those norm equations list each coset exactly once.
    """
    alg = O.alg
    found = []
    norms = []
    for e in alg.base.totally_positive_units():
        sols = norm_equation_solutions(O, e)
        found += sols
        norms += [e] * len(sols)
    if alg.one not in found:
        raise ArithmeticError("unit group misses the identity")
    return UnitGroup(elements=found, order=len(found), norms=norms)


class _ClassUnits(NamedTuple):
    """What the Brandt cells read off one class: the narrow class bits of
    the representative's reduced norm and the inverse of that norm, the
    norm-one units of its left order through their Z-span, and its coset
    targets (_norm_coset_targets).

    The span has the HNF basis s_1, ..., s_k of the units' integer
    coordinates on the left order, k at most 8; coeffs[g] holds the
    integer coefficients of unit g over it, and lefts and rights the
    left and right matrices of the s_j (QuatAlgebra.left_matrix,
    right_matrix).  Multiplication is linear, so each unit's matrix on a
    lattice is sum_j coeffs[g][j] times that of s_j (_unit_matrices).
    """

    bits: tuple
    nr_inv: object
    coeffs: list
    lefts: list
    rights: list
    targets: list


def _class_units(cs, i):
    """The _ClassUnits of class i of the class set cs.

    Certificate: the norm-one units lie in the left order and in the
    span of its HNF basis, else ArithmeticError.
    """
    alg = cs.order.alg
    G, r, O = cs.unit_groups[i], cs.representatives[i], cs.left_orders[i]
    d, rows = integral_rows(_norm_one_units(alg, G))
    coords = O.int_coords(rows, d)
    if coords is None:
        raise ArithmeticError("unit lies outside its left order")
    basis = hnf_rows(coords)
    coeffs = echelon_coords(basis, coords)
    if coeffs is None:
        raise ArithmeticError("unit lies outside the span of its HNF basis")
    span = [O.vector(s) for s in basis]
    return _ClassUnits(
        bits=alg.base.narrow_dlog(r.nr_ideal()),
        nr_inv=r.nr_ideal().inverse(),
        coeffs=coeffs,
        lefts=[alg.left_matrix(s) for s in span],
        rights=[alg.right_matrix(s) for s in span],
        targets=_norm_coset_targets(alg, G),
    )


@dataclass
class _BrandtCells:
    """The Brandt data a class set keeps, for the walk and theta alike.

    classes[i] holds the _ClassUnits of class i; pairs[(ai, bi)] holds
    L = a * b^-1, checked once to satisfy L * b in a (_brandt_cell), with
    its stacked left and right unit matrices; columns[(bi, p)], p a prime
    ideal, holds the cells of the Brandt column (b, p) in class order:
    the witness coordinates on L of each cell searched, until the column
    closed at Np + 1 orbits.
    """

    classes: list = field(default_factory=list)
    pairs: dict = field(default_factory=dict)
    columns: dict = field(default_factory=dict)


@dataclass
class ClassSet:
    """Representatives of the right ideal classes of a maximal order.

    representatives[0] is the order itself.  left_orders[i] and
    unit_groups[i] belong to representatives[i]; mass is the verified
    sum of 1/|unit group| and support the primes used for the walk.
    splittings keeps the checked splitting at each level, by level
    ideal (heckespace.build_splitting), and brandt the Brandt columns
    filled so far with the data of their cells (_BrandtCells).
    """

    order: QuatLattice
    representatives: list
    left_orders: list
    unit_groups: list
    support: list
    mass: Fraction
    splittings: dict = field(default_factory=dict, repr=False, compare=False)
    brandt: _BrandtCells = field(default_factory=_BrandtCells, repr=False, compare=False)

    @property
    def size(self):
        return len(self.representatives)

    def norm_classes(self):
        """FieldCtx.narrow_dlog of each representative's reduced norm."""
        F = self.order.alg.base
        return [F.narrow_dlog(r.nr_ideal()) for r in self.representatives]


def narrow_support(F):
    """A minimal prime list generating the narrow class group.

    Primes are taken in F.primes_by_norm order, up to norm 200, and kept
    only when their class enlarges the subgroup generated so far, so the
    result is deterministic and empty when the narrow class number is 1.
    """
    k = len(F.narrow_gens)
    if not k:
        return []
    have = []
    out = []
    for pr in F.primes_by_norm():
        if pr.norm > 200:
            raise ArithmeticError("primes up to the bound do not generate the narrow class group")
        bits = F.narrow_dlog(pr.ideal)
        if not any(bits):
            continue
        if in_span_mod(span_basis_mod(have, 2), bits, 2):
            continue
        have.append(list(bits))
        out.append(pr)
        if len(out) == k:
            return out


def _first_split_prime(F):
    """The smallest degree one unramified prime of F."""
    return next(pr for pr in F.primes_by_norm() if pr.f == 1 and pr.e == 1)


def compute_class_set(R, support):
    """The class set as the closure of the Brandt columns at the support
    primes, certified by the mass.

    Starting from the trivial class, the columns (b, p) of every
    representative b at every support prime p are taken in breadth first
    order.  Each is filled over the classes known so far
    (_brandt_column); one that reaches Np + 1 orbits has every neighbor
    of b at p in a known class and is closed.  Otherwise the neighbors
    of b at p are listed, and the first one in that order that no
    witness u of the column gives as u^-1 a (a the class of the cell)
    is a new class; it joins with its left order and unit group, its
    cell of the column is filled, and so on until the column closes.
    The closed columns stay on the class set for compute_theta.

    The walk stops exactly when the sum of 1/|unit group| equals the
    Eichler mass, and a sum past it raises ArithmeticError.  By strong
    approximation (Kirschmer-Voight 2010), a walk at primes whose classes
    generate the narrow class group reaches every class; a walk that
    closes below the mass raises ArithmeticError, since its support does
    not generate.  An empty support (narrow class number 1) generates
    nothing to walk at, so the walk then uses the smallest split prime,
    which lies in the trivial narrow class like every ideal.
    """
    F = R.alg.base
    target = eichler_mass(F)
    cs = ClassSet(
        order=R,
        representatives=[],
        left_orders=[],
        unit_groups=[],
        support=list(support),
        mass=Fraction(0),
    )
    _join(cs, R, R)
    if not cs.support and cs.mass != target:
        cs.support = [_first_split_prime(F)]
    p_bits = [F.narrow_dlog(p.ideal) for p in cs.support]
    pending = [(0, si) for si in range(len(cs.support))]
    pos = 0
    while cs.mass != target:
        if pos == len(pending):
            raise ArithmeticError(
                "neighbor walk closed below the Eichler mass; "
                "the support does not generate the narrow class group"
            )
        bi, si = pending[pos]
        pos += 1
        p = cs.support[si]
        nbrs = None
        covered = set()
        seen = 0
        while True:
            cells = _brandt_column(cs, bi, p, p_bits[si])
            if sum(map(len, cells)) == p.norm + 1:
                break
            if nbrs is None:
                nbrs = neighbors(cs.representatives[bi], p)
            for ai in range(seen, len(cells)):
                for x in cells[ai]:
                    u = cs.brandt.pairs[ai, bi][0].vector(x)
                    covered.add(_witness_neighbor(cs.representatives[ai], u))
            seen = len(cells)
            c = next((c for c in nbrs if c not in covered), None)
            if c is None:
                raise ArithmeticError("Brandt column short of Np + 1 orbits covers every neighbor")
            _join(cs, c, c.left_order())
            if cs.mass > target:
                raise ArithmeticError(
                    "unit masses exceed the Eichler mass; class identification is broken"
                )
            pending.extend((cs.size - 1, sj) for sj in range(len(cs.support)))
    return cs


def _join(cs, rep, left):
    """Add the class of rep, with its left order, its unit group and its
    share of the mass."""
    G = unit_group(left)
    cs.representatives.append(rep)
    cs.left_orders.append(left)
    cs.unit_groups.append(G)
    cs.mass += Fraction(1, G.order)


def _witness_neighbor(a, u):
    """The neighbor u^-1 a that a Brandt witness u into the class of a gives."""
    return a.lmul_element(a.alg.inv(u))


@dataclass
class ThetaTable:
    """Neighbor witnesses between the classes at every prime up to a bound.

    entries[(pi, ai, bi)] holds one u per neighbor c of representative[bi]
    at primes[pi] that lies in class ai, with representative[ai] = u * c;
    a key is absent when there is no such neighbor.  compute_theta
    certifies that every column sum over ai equals Np + 1 and that each
    u carries representative[bi] into representative[ai] at index Np^2.
    """

    bound: int
    primes: list
    entries: dict


def _norm_one_units(alg, G):
    """The stored units of reduced norm exactly 1: the norm-one group mod +-1."""
    one = alg.base.one
    return [g for g, e in zip(G.elements, G.norms) if e == one]


def _norm_coset_targets(alg, G):
    """One totally positive unit rep per coset of the reduced norms of G.

    The norms of the unit group, taken modulo squares, form a subgroup
    N of the totally positive units modulo squares.  Left multiplication
    by a unit moves witnesses of norm beta * e to norm beta * e * nr(g),
    so targets in one coset of N give the same neighbors and targets in
    different cosets give disjoint ones.
    """
    reps = alg.base.totally_positive_units()
    index = {e: i for i, e in enumerate(reps)}
    norms = {index[e] for e in G.norms}
    out = []
    covered = set()
    for i, e in enumerate(reps):
        if i not in covered:
            out.append(e)
            covered.update(i ^ j for j in norms)
    return out


def _unit_matrices(L, coeffs, lams):
    """Integer matrices of multiplication by units on L, stacked.

    lams holds the pairs (lam, d) of QuatAlgebra.left_matrix or
    right_matrix for the span elements s_j of a class's units, and
    coeffs[g] the coefficients of unit g over them (_ClassUnits),
    computed once per class rather than once per lattice.  L must be a
    module over the order holding the units, on that side: row i of the
    matrix M_j holds the coordinates of rows[i] / den times s_j (s_j
    times it, for left matrices) on the basis rows, so the image of x
    over the rows is x M_j, and M_g = sum_j coeffs[g][j] M_j.  So only
    the k span matrices are solved on L.  Row i of the result is row i
    of every M_g in turn, the form _images uses.
    """
    flats = []
    for lam, d in lams:
        m = L.int_coords(int_product(L.rows, lam), L.den * d)
        if m is None:
            raise ArithmeticError("unit does not preserve the lattice")
        flats.append([v for row in m for v in row])
    n = len(L.rows)
    out = [[] for _ in range(n)]
    for cg in coeffs:
        # the entries of M_g, row by row, over the nonzero coefficients only
        acc = None
        for c, w in zip(cg, flats):
            if c:
                acc = [c * v for v in w] if acc is None else [a + c * v for a, v in zip(acc, w)]
        for i, row in enumerate(out):
            row += acc[i * n:(i + 1) * n]
    return out


def _images(x, stacked):
    """The images x M_g of x under the units of stacked (_unit_matrices),
    in unit order, each sign-normalized: the first nonzero entry
    positive, as the norm equation walk gives its vectors."""
    acc = None
    for xi, row in zip(x, stacked):
        if xi:
            acc = [xi * r for r in row] if acc is None else [a + xi * r for a, r in zip(acc, row)]
    n = len(x)
    out = []
    for k in range(0, len(acc), n):
        y = acc[k:k + n]
        out.append(tuple(y) if next(v for v in y if v) > 0 else tuple([-v for v in y]))
    return out


def _double_coset_orbits(seeds, left, right, covered, room):
    """Witnesses of the left unit orbits met by the double cosets of seeds.

    seeds are sign-normalized coordinate vectors of one norm equation,
    drawn lazily; left and right are the stacked matrices of
    _unit_matrices for G_a (left) and G_b (right), each group taken
    modulo +-1.  A seed x in no orbit found so far gives the left orbits
    of its right translates x h, h in G_b: G_a x G_b is a union of left
    orbits, and every vector of the orbits found goes into covered.  The
    lexicographic minimum of each new orbit is its witness.  The draw
    stops once room orbits are found: room is what the Brandt column has
    left of its Np + 1 neighbors.

    Certificates, each raising ArithmeticError: every left orbit has
    |G_a| distinct elements and holds its seed translate, no orbit meets
    one found before, and the double cosets drawn hold no more than room
    orbits.
    """
    out = []
    for x in seeds:
        if x in covered:
            continue
        for y in _images(x, right):
            if y in covered:
                continue
            images = _images(y, left)
            orbit = set(images)
            if len(orbit) != len(images) or y not in orbit:
                raise ArithmeticError("left unit orbit is not free through its seed")
            if not covered.isdisjoint(orbit):
                raise ArithmeticError("left unit orbits of a cell overlap")
            covered |= orbit
            out.append(min(orbit))
        if len(out) >= room:
            if len(out) > room:
                raise ArithmeticError("Brandt column exceeds Np + 1 orbits")
            break
    return out


def _brandt_column(cs, bi, pr, p_bits):
    """The cells of the Brandt column (b, p), filled over the known classes.

    The column is kept on the class set (ClassSet.brandt) and grown from
    the first class it has not searched, in class order, while it holds
    fewer than Np + 1 orbits: a neighbor lies in one class only, so a
    closed column leaves its later cells empty.  p_bits are the narrow
    class bits of p.  The unit data of each class (_class_units: the
    span of its norm-one units, and the unit coefficients over it) is
    taken once, when the first column after the class joined is filled;
    each pair of classes then solves only the span's matrices on
    L = a * b^-1 (_unit_matrices).  Returns the witness coordinates of
    each cell searched (_brandt_cell), on the basis of L.
    """
    br = cs.brandt
    # the unit data of the classes that joined since the last fill
    br.classes += [_class_units(cs, i) for i in range(len(br.classes), cs.size)]
    cells = br.columns.setdefault((bi, pr.ideal), [])
    room = pr.norm + 1 - sum(map(len, cells))
    while room and len(cells) < cs.size:
        xs = _brandt_cell(cs, len(cells), bi, pr, p_bits, room)
        cells.append(xs)
        room -= len(xs)
    return cells


def _brandt_cell(cs, ai, bi, pr, p_bits, room):
    """Witness coordinates of the p-neighbors of b in the class of a, at
    most room of them (compute_theta).

    The first cell of a pair of classes builds L = a * b^-1 and checks
    once that L * b lies in a: the products u * b of the basis rows u of
    L, over b.den * L.den, have integer coordinates on a.  Every witness
    has integer coordinates on L, so u * b lies in a for each of them,
    and its index there is Np^2 by its norm (compute_theta).
    """
    br = cs.brandt
    F = cs.order.alg.base
    ca, cb = br.classes[ai], br.classes[bi]
    if any(x ^ y ^ z for x, y, z in zip(ca.bits, p_bits, cb.bits)):
        return []
    a, b = cs.representatives[ai], cs.representatives[bi]
    beta = F.narrowly_principal_generator(a.nr_ideal() * pr.ideal * cb.nr_inv)
    if beta is None:
        raise ArithmeticError("narrowly trivial ideal has no totally positive generator")
    if (ai, bi) not in br.pairs:
        L = a.compose(b.inverse())
        lb = [r for u in L.rows for r in int_product(b.rows, L.alg.left_matrix(u)[0])]
        if a.int_coords(lb, b.den * L.den) is None:
            raise ArithmeticError("L * b does not lie in a for L = a * b^-1")
        br.pairs[ai, bi] = (
            L,
            _unit_matrices(L, ca.coeffs, ca.lefts),
            _unit_matrices(L, cb.coeffs, cb.rights),
        )
    L, left, right = br.pairs[ai, bi]
    forms, D = L.norm_forms()
    covered = set()
    xs = []
    for e in ca.targets:
        alpha = F.mul(beta, e)
        seeds = iter_norm_equation_coords(L, alpha)
        found = _double_coset_orbits(seeds, left, right, covered, room)
        room -= len(found)
        want = [D * c for c in alpha]
        for x in found:
            if [sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, N))
                    for N in forms] != want:
                raise ArithmeticError("theta witness does not have the target norm")
        xs += sorted(found)
        if not room:
            break
    return xs


def check_norm_classes(th, nr_bits, p_bits):
    """e_chi M_p = chi(p) (Np + 1) e_chi for every narrow class character
    chi, in integers: each column b at p holds Np + 1 witnesses, all into
    classes a with [nr a] = [p] [nr b] (narrow class bits nr_bits of the
    representatives' norms, p_bits of th.primes), or ArithmeticError."""
    counts = Counter()
    for (pi, ai, bi), us in th.entries.items():
        if any(x ^ y ^ z for x, y, z in zip(nr_bits[ai], p_bits[pi], nr_bits[bi])):
            raise ArithmeticError("theta witness leaves the norm class [p] [nr b]")
        counts[pi, bi] += len(us)
    for pi, pr in enumerate(th.primes):
        if any(counts[pi, bi] != pr.norm + 1 for bi in range(len(nr_bits))):
            raise ArithmeticError("orbit table column does not sum to Np + 1")


def compute_theta(cs, bound):
    """Neighbor witnesses between all classes at all primes up to bound.

    For classes a, b and a prime p, the p-neighbors c of b in the class
    of a are the c = u^-1 a for u in L = a * b^-1 whose reduced norm
    generates J = nr(a) p nr(b)^-1, counted modulo left multiplication by
    G_a, the norm-one units of the left order of a.  When J has no
    totally positive generator the cell is empty: every narrow class has
    order 2, so that is read off the narrow dlogs of nr(a), p and
    nr(b), taken once each, and a generator is searched only for the
    narrowly trivial J.  With beta that generator, the solutions of
    nr(u) = beta * e over L for the coset targets e
    (_norm_coset_targets) are the neighbors of the cell.

    The solutions are also stable under right multiplication by G_b,
    the norm-one units of the left order of b, since u h b = u b.  So
    the table is filled column by column (_brandt_column): for each b
    and p, the narrowly trivial cells are taken in class order, and each
    draws seeds lazily from its norm equation walk; one seed gives every
    left orbit of its double coset G_a u G_b (_double_coset_orbits).
    Once the column holds Np + 1 orbits, the walk and the later cells of
    the column are skipped: a neighbor lies in one class only.  Each
    cell lists the lexicographic minima of its orbits, sorted per
    target.  The columns compute_class_set closed at the support primes
    are taken as they are, and only the others are filled.  Solutions
    stay integer coordinate vectors on the basis of L throughout: the
    units act on them by integer matrices, each a combination of the
    matrices of a few span elements (_unit_matrices), the witness checks
    run on the norm forms of L, and only the witnesses become
    quaternions.

    Certificates, each raising ArithmeticError: a narrowly trivial J has
    a totally positive generator, the orbit checks of
    _double_coset_orbits, L * b lies in a for each pair of classes (one
    check per pair, _brandt_cell), every witness u takes the target
    values on the norm forms of L, and the neighbors of each b at each p
    number Np + 1 (check_norm_classes).  Each witness u lies in L, so
    u * b lies in a, and its index there needs no check of its own:
    left multiplication by u scales covolumes by N(nr u)^2, and the norm
    check pins nr(u) = beta * e with N(e) = 1, so covol(u * b) =
    N(J)^2 covol(b) and [a : u * b] = Np^2, since covol(a) / covol(b) =
    (N(nr a) / N(nr b))^2.
    """
    F = cs.order.alg.base
    primes = F.prime_ideals_up_to(bound)
    p_bits = [F.narrow_dlog(pr.ideal) for pr in primes]
    entries = {}
    for bi in range(cs.size):
        for pi, pr in enumerate(primes):
            for ai, xs in enumerate(_brandt_column(cs, bi, pr, p_bits[pi])):
                if xs:
                    L = cs.brandt.pairs[ai, bi][0]
                    entries[(pi, ai, bi)] = [L.vector(x) for x in xs]
    # keys in (b, a, p) order, whatever order the columns were walked in
    entries = {k: entries[k] for k in sorted(entries, key=lambda k: (k[2], k[1], k[0]))}
    th = ThetaTable(bound=bound, primes=primes, entries=entries)
    check_norm_classes(th, cs.norm_classes(), p_bits)
    return th
