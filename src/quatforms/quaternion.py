"""Totally definite quaternion algebras over a totally real field.

An algebra is presented by structure constants a, b (both totally
negative integers of the base field): i^2 = a, j^2 = b, k = ij = -ji.
Elements are flat coordinate tuples of length 4n over Q, n the field
degree, blocks ordered (1, i, j, k) and each block holding coordinates
over the field's integral basis.  Lattices of full rank 4n carry the
order and ideal arithmetic.  A lattice is built from integer rows over
one denominator and kept in the canonical form of
intmat.canonical_lattice.

The structure constants on the ambient basis are integers, read off the
relations in integer field arithmetic (QuatAlgebra.mul_table).  Every
lattice computation runs on them and on integer rows: products, scaling
by field ideals, conjugates, inverses, colons and with them left and
right orders, membership, the order test is_order, and the maximal
order search of maximalize, whose residue algebras O/pO take their
products from the sparse table and their radicals from the norm forms,
and whose certificate is the reduced discriminant dropping to the unit
ideal (norm 1).  Norm equations are solved in integer coordinates on a
lattice's basis, where the reduced norm is a set of integer quadratic
forms (QuatLattice.norm_forms).  Single rational elements multiply
through the same table (mul, and nr, fmul and inv on it), so the table
is the one definition of the product.
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
import logging

from .arith import factor_int
from .intmat import (
    abs_det,
    canonical_lattice,
    hnf_rows,
    int_product,
    integral_preimage_rows,
    inverse_rows,
    lattice_coords,
)
from .latticetools import _quad, enumerate_norm, iter_norm
from .numberfield import FieldIdeal
from .residue import (
    LatticeQuotient,
    center_rows,
    kernel_mod,
    matmul_mod,
    primitive_idempotents,
    quotient_by_ideal,
    rank_mod,
    right_multiplication,
    span_basis_mod,
    sparse_table,
    subalgebra,
)

log = logging.getLogger(__name__)

_ZERO = Fraction(0)


def _integral_element(x):
    """(d, d * x): x, of int or Fraction entries, over its least common
    denominator, as integers; an integer x is taken as it is, with d = 1."""
    if all(type(c) is int for c in x):
        return 1, x
    d = lcm(*(c.denominator for c in x))
    return d, [c.numerator * (d // c.denominator) for c in x]


class QuatAlgebra:
    """B = (a, b | F) with a, b totally negative; definite at every real place."""

    def __init__(self, base, a, b):
        self.base = base
        n = base.degree
        a = base.from_int(a) if isinstance(a, (int, Fraction)) else base.el(a)
        b = base.from_int(b) if isinstance(b, (int, Fraction)) else base.el(b)
        if not (base.is_integral(a) and base.is_integral(b)):
            raise ValueError("structure constants must be integral")
        allneg = (-1,) * n
        if base.sign_vector(a) != allneg or base.sign_vector(b) != allneg:
            raise ValueError("structure constants must be totally negative")
        self.a = a
        self.b = b
        self._ab = base.mul(a, b)
        self.dim = 4 * n
        self.one = tuple(
            Fraction(1) if t == 0 else _ZERO for t in range(self.dim)
        )
        self._maximalized = {}
        self._table = self._sparse = None

    def __repr__(self):
        return "QuatAlgebra(%r, a=%s, b=%s)" % (self.base, self.a, self.b)

    # -- elements ----------------------------------------------------------

    def el(self, c0, c1=0, c2=0, c3=0):
        """Element from four field components (ints or coordinate seqs)."""
        out = []
        for c in (c0, c1, c2, c3):
            if isinstance(c, (int, Fraction)):
                out.extend(Fraction(c) if t == 0 else _ZERO
                           for t in range(self.base.degree))
            else:
                out.extend(self.base.el(c))
        return tuple(out)

    def fmul(self, c, x):
        """Multiply by a central field element (coordinate seq)."""
        return self.mul(self.el(c), x)

    def mul(self, x, y):
        """x * y, as y times the left multiplication matrix of x."""
        m, d = self.left_matrix(x)
        e, ys = _integral_element(y)
        return tuple(Fraction(c, d * e) for c in int_product([ys], m)[0])

    def mul_table(self):
        """T with e_s * e_t = sum_u T[s][t][u] e_u on the standard basis.

        The standard basis is the ambient coordinate basis: the integral
        basis w_0, ..., w_(n-1) of the field times 1, i, j, k.  It is read
        off the relations, in integers: the unit q times the unit r is
        c e_(q xor r) with c in {+-1, +-a, +-b, +-ab} (i^2 = a, j^2 = b,
        k^2 = -ab, ij = -ji = k, ik = -ki = a j, kj = -jk = b i), and the
        field is central, so w_s e_q * w_t e_r = (w_s w_t c) e_(q xor r).
        a and b are integral, so every structure constant is an integer.
        """
        if self._table is None:
            F = self.base
            n, N = F.degree, self.dim
            a, b, ab = ([int(c) for c in x] for x in (self.a, self.b, self._ab))
            one = [1] + [0] * (n - 1)
            neg_one, neg_a, neg_b, neg_ab = ([-c for c in x] for x in (one, a, b, ab))
            # rel[q][r] = c with e_q e_r = c e_(q xor r), units 1, i, j, k
            rel = [
                [one, one, one, one],
                [one, a, one, a],
                [one, neg_one, b, neg_b],
                [one, neg_a, b, neg_ab],
            ]
            table = [[[0] * N for _ in range(N)] for _ in range(N)]
            for q in range(4):
                for r in range(4):
                    u = (q ^ r) * n
                    # rep_rows(x)[s] is w_s x: integer rows for integer x
                    for s, wc in enumerate(F.rep_rows(rel[q][r])):
                        for t, coeffs in enumerate(F.rep_rows(wc)):
                            table[q * n + s][r * n + t][u:u + n] = coeffs
            self._table = table
        return self._table

    def sparse_table(self):
        """mul_table in the sparse form of residue.sparse_table: row t
        lists the nonzero (s, u, T[s][t][u])."""
        if self._sparse is None:
            self._sparse = sparse_table(self.mul_table())
        return self._sparse

    def left_matrix(self, x):
        """(M, d): y -> x * y is y -> y M / d on ambient row vectors.

        M is an integer matrix and d the least common denominator of x;
        an integer x is taken as it is, with d = 1.  Row t of M is
        x * e_t, summed over the nonzero structure constants only.
        """
        d, xs = _integral_element(x)
        N = self.dim
        out = []
        for entries in self.sparse_table():
            row = [0] * N
            for s, u, c in entries:
                if xs[s]:
                    row[u] += c * xs[s]
            out.append(row)
        return out, d

    def right_matrix(self, x):
        """(M, d): y -> y * x is y -> y M / d on ambient row vectors.

        As left_matrix, from the same sparse table: row s of M is
        e_s * x = sum_t x_t e_s * e_t.
        """
        d, xs = _integral_element(x)
        return right_multiplication(self.sparse_table(), xs), d

    def conj(self, x):
        n = self.base.degree
        return tuple(Fraction(c) if t < n else -Fraction(c)
                     for t, c in enumerate(x))

    def nr(self, x):
        """Reduced norm x * conj(x), as a field element."""
        return self.mul(x, self.conj(x))[:self.base.degree]

    def inv(self, x):
        nrm = self.nr(x)
        if not any(nrm):
            raise ZeroDivisionError("zero has no inverse")
        return self.fmul(self.base.inv(nrm), self.conj(x))

    # -- lattices ----------------------------------------------------------

    def standard_order(self):
        """O_F-span of 1, i, j, k: the identity lattice in these coordinates."""
        N = self.dim
        return QuatLattice(
            self, [[int(r == c) for c in range(N)] for r in range(N)], 1
        )


class QuatLattice:
    """Full-rank Z-lattice in B: the span of integer rows over den > 0,
    kept as canonical HNF rows over the least denominator."""

    __slots__ = (
        "alg", "rows", "den", "_left", "_right", "_nr", "_disc", "_forms", "_inv",
        "_ideal_inv", "_splits",
    )

    def __init__(self, alg, rows, den):
        rows, den = canonical_lattice(rows, den, alg.dim)
        self.alg = alg
        self.rows = tuple(map(tuple, rows))
        self.den = den
        self._left = self._right = self._nr = self._disc = None
        self._forms = self._inv = self._ideal_inv = None
        # residue splittings at primes, kept by classset.split_residue_matrix
        self._splits = {}

    def vector(self, x):
        """The element sum_i x[i] * rows[i] / den for integer coordinates x."""
        acc = [0] * len(self.rows)
        for xi, row in zip(x, self.rows):
            if xi:
                for j, c in enumerate(row):
                    acc[j] += xi * c
        d = self.den
        return tuple(Fraction(c, d) for c in acc)

    def _inverse(self):
        """(adj, rho) with adj / rho the inverse of the basis rows."""
        if self._inv is None:
            self._inv = inverse_rows(self.rows)
        return self._inv

    def int_coords(self, mat, den):
        """Coordinates of the vectors mat[i] / den over the basis rows.

        mat is an integer matrix.  Returns an integer matrix, or None when
        some vector lies outside the lattice.
        """
        return lattice_coords(self._inverse(), self.den, mat, den)

    def contains_lattice(self, other):
        return self.int_coords(other.rows, other.den) is not None

    def covolume(self):
        num = 1
        for i, row in enumerate(self.rows):
            num *= row[i]
        return Fraction(num, self.den ** self.alg.dim)

    def __eq__(self, other):
        return (
            isinstance(other, QuatLattice)
            and self.alg is other.alg
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.alg), self.den, self.rows))

    def __repr__(self):
        return "QuatLattice(den=%d, rank=%d)" % (self.den, len(self.rows))

    # -- arithmetic --------------------------------------------------------

    def iscale(self, ideal):
        """Scale by a fractional ideal of the base field.

        Each integer row x of the ideal is central in B, so the products
        x * v are the rows times its left multiplication matrix.
        """
        alg = self.alg
        pad = (0,) * (alg.dim - len(ideal.rows))
        rows = []
        for x in ideal.rows:
            rows += int_product(self.rows, alg.left_matrix(tuple(x) + pad)[0])
        return QuatLattice(alg, rows, self.den * ideal.den)

    def lmul_element(self, x):
        """The lattice x * L, for an element x of B."""
        lam, d = self.alg.left_matrix(x)
        return QuatLattice(self.alg, int_product(self.rows, lam), self.den * d)

    def compose(self, other):
        """Ideal product IJ; the factors' inner orders must match.

        The factors are taken to be invertible, as every ideal whose left
        or right order is maximal is.  Then, with O = O_r(I) = O_l(J), the
        index of IJ is multiplicative: covol(IJ) covol(O) = covol(I)
        covol(J).  So the product is grown block by block, I y_j for the
        basis rows y_j of J in turn (each block the rows y_j M_x, M_x the
        integer left matrix of a row x of I), and the growth stops once
        the span has that covolume, which usually takes one or two of the
        4n blocks.  A span can reach the covolume short of IJ when the
        index rule fails, so the products of the remaining rows must all
        lie in it; then the span is IJ.  O_l(IJ) = O_l(I) and O_r(IJ) =
        O_r(J), and whichever of these is already known is set on the
        product.

        Certificates, each raising ArithmeticError: the product has the
        product index, and it holds the blocks left out of its span.
        """
        alg = self.alg
        if alg is not other.alg:
            raise ValueError("lattices lie in different algebras")
        order = self.right_order()
        if order != other.left_order():
            raise ValueError("ideals have incompatible orders for composition")
        target = self.covolume() * other.covolume()
        lams = [alg.left_matrix(x)[0] for x in self.rows]
        den = self.den * other.den

        def block(y):
            # the products x * y = y M_x over the rows x of I, over den
            return [int_product([y], lam)[0] for lam in lams]

        rows = []
        for j, y in enumerate(other.rows):
            out = QuatLattice(alg, rows + block(y), den)
            if out.covolume() * order.covolume() == target:
                break
            rows = [[c * (den // out.den) for c in row] for row in out.rows]
        else:
            raise ArithmeticError("ideal product does not have the product index")
        rest = [v for y in other.rows[j + 1:] for v in block(y)]
        if rest and out.int_coords(rest, den) is None:
            raise ArithmeticError("ideal product misses a product of the factors' rows")
        out._left, out._right = self._left, other._right
        return out

    def conjugate(self):
        """The conjugate lattice: conj negates all but the field block."""
        n = self.alg.base.degree
        rows = [row[:n] + tuple(-c for c in row[n:]) for row in self.rows]
        return QuatLattice(self.alg, rows, self.den)

    # -- invariants --------------------------------------------------------

    def left_order(self):
        if self._left is None:
            self._left = self._stabilizer(left=True)
        return self._left

    def right_order(self):
        if self._right is None:
            self._right = self._stabilizer(left=False)
        return self._right

    def _stabilizer(self, left):
        """The left order {x : x L in L} of L, or its right order: the
        colon of L by its own basis rows."""
        order = self.colon(self.rows, self.den, left)
        # an order is its own left and right order
        order._left = order._right = order
        return order

    def colon(self, gens, den, left):
        """The left colon {x : x g / den in L for every integer row g of
        gens}, or the right colon {x : g x / den in L} when left is false.

        One integral preimage solve: row r of the system holds, for each
        g in turn, the coordinates of e_r g (g e_r for the right colon)
        over the basis rows, read off the integer right (left)
        multiplication matrix M_g of g.  The coordinates of x g / den are
        x M_g adj L.den / (den rho), adj / rho the inverse of the basis.
        When L is a right module over an order S and the g / den generate
        the right S-module M, the left colon is {x : x M in L}, since
        x g S lies in L S = L once x g does; on the left likewise.
        """
        alg = self.alg
        side = alg.right_matrix if left else alg.left_matrix
        adj, rho = self._inverse()
        q = den * rho
        g = gcd(self.den, q)
        scale = self.den // g
        blocks = [int_product(side(v)[0], adj) for v in gens]
        mat = [[scale * c for block in blocks for c in block[r]] for r in range(alg.dim)]
        return QuatLattice(alg, *integral_preimage_rows(mat, q // g))

    def norm_forms(self):
        """The reduced norm on the basis rows as integer quadratic forms.

        Returns (forms, D) with nr(sum_i x_i rows[i] / den) =
        sum_k (x forms[k] x^T / D) w_k for integer x, w_k the integral
        basis of the base field and D = 2 den^2.  forms[k][i][j] is
        coordinate k of trd(r_i conj(r_j)) for the integer rows r_i, so
        its diagonal holds 2 nr(r_i).
        """
        if self._forms is None:
            alg = self.alg
            n = alg.base.degree
            table = alg.mul_table()
            N = alg.dim
            # trd(e_s conj(e_t)) = +-2 (e_s e_t)_k: conj fixes the first
            # n basis vectors (the field) and negates the others
            rt = list(zip(*self.rows))
            forms = []
            for k in range(n):
                p = [[2 * table[s][t][k] * (1 if t < n else -1) for t in range(N)]
                     for s in range(N)]
                forms.append(int_product(int_product(self.rows, p), rt))
            self._forms = (forms, 2 * self.den ** 2)
        return self._forms

    def nr_ideal(self):
        """Field ideal generated by reduced norms of lattice elements."""
        if self._nr is None:
            F = self.alg.base
            forms, scale = self.norm_forms()
            m = len(self.rows)
            # scale nr(b_i) on the diagonal, scale trd(b_i conj(b_j)) off
            # it; the ideal over scale is the O_F-span of the HNF basis of
            # their Z-span
            gens = hnf_rows([
                [N[i][j] * (1 if i == j else 2) for N in forms]
                for i in range(m)
                for j in range(i, m)
            ])
            rows = [row for g in gens for row in F.rep_rows(g)]
            self._nr = FieldIdeal(F, *canonical_lattice(rows, scale, F.degree))
        return self._nr

    def inverse(self):
        """conj(I) / nr(I); inverts locally principal ideals, which is every
        lattice whose left (equivalently right) order is maximal.

        Built once and kept on the lattice.  The left order of the inverse
        is O_r(I) and its right order is O_l(I); whichever of these is
        known, now or since the inverse was built, is set on the result.
        """
        out = self._ideal_inv
        if out is None:
            out = self._ideal_inv = self.conjugate().iscale(self.nr_ideal().inverse())
        if out._left is None:
            out._left = self._right
        if out._right is None:
            out._right = self._left
        return out

    def disc_z(self):
        """Determinant of the Z-Gram of Tr_{F/Q}(trd(x * conj(y))).

        The Gram is positive definite, and trace_form_gram at w = 1 gives
        it as (2 g / D) gram on the m basis rows, so its determinant is
        abs_det(gram) (2 g / D)^m.
        """
        if self._disc is None:
            gram, g = trace_form_gram(self, (1, 0))
            _, D = self.norm_forms()
            self._disc = abs_det(gram) * Fraction(2 * g, D) ** len(self.rows)
        return self._disc


def is_order(lat):
    """1 in the lattice, basis integral over O_F, closed under products.

    Decided on the integer rows r_i over den: 1 has integer coordinates;
    trd(r_i / den), the field block of 2 r_i / den, and nr(r_i / den),
    the diagonal of norm_forms over its denominator, are integral; and
    for each row x the products x * r_j, the block rows * left_matrix(x),
    have integer coordinates over den^2.
    """
    alg = lat.alg
    n, den = alg.base.degree, lat.den
    if lat.int_coords([[1] + [0] * (alg.dim - 1)], 1) is None:
        return False
    if any(2 * c % den for row in lat.rows for c in row[:n]):
        return False
    forms, D = lat.norm_forms()
    if any(N[i][i] % D for N in forms for i in range(len(lat.rows))):
        return False
    prods = []
    for x in lat.rows:
        prods += int_product(lat.rows, alg.left_matrix(x)[0])
    return lat.int_coords(prods, den * den) is not None


def reduced_discriminant_norm(order):
    """N(discrd(O)), from det Gram = N(disc O) * disc(F)^4 and disc = discrd^2.

    The value 1 certifies a maximal order in an everywhere-unramified
    algebra: an integral ideal of norm 1 is the unit ideal.
    """
    q = Fraction(order.disc_z(), order.alg.base.disc ** 4)
    if q.denominator != 1 or q <= 0:
        raise ArithmeticError("not the discriminant of an order")
    s = isqrt(int(q))
    if s * s != q:
        raise ArithmeticError("discriminant norm is not a square")
    return s


# ---------------------------------------------------------------------------
# maximal orders


def _idealizer_growth(order, quo, ideal_rows, p):
    """Left/right order of the lifted ideal, when strictly larger."""
    rows = [[p * c for c in row] for row in order.rows]
    rows += [quo.lift(r) for r in ideal_rows]
    lat = QuatLattice(order.alg, rows, order.den)
    # the right order is stabilized only when the left order did not grow
    for order_of in (lat.left_order, lat.right_order):
        cand = order_of()
        if cand != order:
            if not cand.contains_lattice(order):
                raise ArithmeticError("idealizer does not contain the order")
            return cand
    return None


def _residue_radical(order, A, p):
    """Canonical (rref) basis rows of the Jacobson radical of A = O/pO,
    in coordinates over the basis rows b_i of O mod p, which are those of
    LatticeQuotient(O, pO); read off the norm forms of O.

    With r the product of the distinct primes of F over p, x lies in the
    radical exactly when nr(x) and trd(x conj b_j), for every j, lie in
    r.  Every z in O has z^2 - trd(z) z + nr(z) = 0, so z is nilpotent
    mod p exactly when trd z and nr z lie in r; x is in the radical when
    every x y is nilpotent, and nr(x y) = nr(x) nr(y) with conj O = O
    gives the rule.  An integer t of F lies in r when it lies in each
    prime P over p, that is when phi . t = 0 mod p for every phi in the
    kernel of P's rows mod p.  Each phi, applied to the coordinates of
    the norm forms, gives one integer form G_phi: G_phi / den^2 holds
    phi of trd(b_i conj b_j), and x G_phi x^T / D is phi of nr(x).

    The trace conditions are linear: their kernel K mod p.  On K, nr is
    additive mod r, as nr(x + y) = nr x + nr y + trd(x conj y), so the
    radical is the kernel of nr mod r on the basis of K.  For odd p that
    second kernel is all of K, as 2 nr x = trd(x conj x).

    Certificates, each raising ArithmeticError: the span is a two-sided
    ideal of A, and it is nilpotent.
    """
    forms, D = order.norm_forms()
    m = len(order.rows)
    gs = [
        [[sum(f * N[i][j] for f, N in zip(phi, forms)) for j in range(m)] for i in range(m)]
        for P, _, _ in order.alg.base.primes_above(p)
        for phi in kernel_mod(P.rows, p)
    ]
    # D = 2 den^2, and trd and nr are integral on an order
    K = kernel_mod([[c // (D // 2) for c in row] for G in gs for row in G], p)
    vals = [[_quad(G, v) // D for G in gs] for v in K]
    rows = [
        tuple(sum(c * v[j] for c, v in zip(coeffs, K)) % p for j in range(m))
        for coeffs in kernel_mod(tuple(zip(*vals)), p)
    ]
    rad = span_basis_mod(rows, p)
    # the span must not grow when every product by a unit vector joins it
    units = [A.unit(l) for l in range(m)]
    sides = [A.mul(r, e) for r in rad for e in units] + [A.mul(e, r) for r in rad for e in units]
    if rank_mod(rad + sides, p) != len(rad):
        raise ArithmeticError("radical candidate is not a two-sided ideal")
    power = rad
    for _ in range(m):
        if not power:
            break
        power = span_basis_mod([A.mul(x, y) for x in power for y in rad], p)
    if power:
        raise ArithmeticError("radical candidate is not nilpotent")
    return rad


def _enlarge_at(order, p):
    """One strictly larger order locally at p, or None if maximal there.

    First pass: idealizer of the radical of O/pO (_residue_radical).
    When that stalls the order is hereditary at p; the kernels of the
    projections onto the simple factors of (O/pO)/rad are then maximal
    two-sided ideals whose idealizers realize the maximal overorders.
    """
    alg = order.alg
    pO = [[p * c for c in row] for row in order.rows]
    quo = LatticeQuotient(order.rows, order.den, pO, order.den, p, alg.sparse_table())
    A = quo.algebra
    rad = _residue_radical(order, A, p)
    grown = _idealizer_growth(order, quo, rad, p)
    if grown is not None:
        return grown
    S, proj = quotient_by_ideal(A, rad)
    cen = center_rows(S)
    if len(cen) < 2:
        return None
    idems = primitive_idempotents(subalgebra(S, cen, S.one))
    if len(idems) < 2:
        return None
    for idem in idems:
        e = [0] * S.dim
        for c, row in zip(idem, cen):
            if c:
                for j, v in enumerate(row):
                    e[j] = (e[j] + c * v) % S.p
        ker = kernel_mod(matmul_mod(S.rep_left(tuple(e)), proj, S.p), S.p)
        grown = _idealizer_growth(order, quo, list(ker), p)
        if grown is not None:
            return grown
    return None


def maximalize(order):
    """A maximal order containing the input.

    Enlarges prime by prime until the reduced discriminant norm stops
    dropping (_maximalize).  The result is kept per algebra, so
    maximalizing the same order again costs nothing.
    """
    memo = order.alg._maximalized
    if order not in memo:
        memo[order] = _maximalize(order)[0]
    return memo[order]


def _maximalize(order):
    """(maximal order, strictly decreasing reduced discriminant norms)."""
    if not is_order(order):
        raise ValueError("input lattice is not an order")
    O = order
    norms = []
    settled = set()
    while True:
        nd = reduced_discriminant_norm(O)
        if not norms or norms[-1] != nd:
            norms.append(nd)
        if nd == 1:
            break
        ps = sorted(p for p in factor_int(nd) if p not in settled)
        if not ps:
            break
        O2 = _enlarge_at(O, ps[0])
        if O2 is None:
            settled.add(ps[0])
            log.debug("maximalize: settled at p=%d, residual norm %d", ps[0], nd)
        else:
            O = O2
    O._left = O._right = O
    return O, norms


def _structure_candidates(F):
    """(-1, -1), then (-1, v) for the totally negative integral v by box
    radius 1, 2, 3, ...: at each radius the v with coordinates in
    [-radius, radius] that no smaller radius gave, by the trace of -v
    and then by coordinates.

    The walk has no end of its own; hilbert_ramification_free_algebra
    ends it.  The algebra B it looks for is (-1, b) for some totally
    negative integral b: F(sqrt -1) is a field at both real places, the
    only places where B ramifies, so F(sqrt -1) embeds in B and B =
    (-1, b).  Scaling b by a norm from F(sqrt -1) makes it integral, and
    B is definite, so b is totally negative and some radius reaches it.
    """
    minus_one = F.from_int(-1)
    yield (minus_one, minus_one)
    seen = {tuple(minus_one)}
    for radius in count(1):
        box = [range(-radius, radius + 1)] * F.degree
        cands = []
        stack = [[]]
        for axis in box:
            stack = [pre + [c] for pre in stack for c in axis]
        for coords in stack:
            if not any(coords):
                continue
            v = F.el(coords)
            if tuple(v) in seen:
                continue
            if F.sign_vector(v) == (-1,) * F.degree:
                cands.append(v)
                seen.add(tuple(v))
        cands.sort(key=lambda v: (F.trace(F.neg(v)), v))
        for v in cands:
            yield (minus_one, v)


def hilbert_ramification_free_algebra(F):
    """The definite quaternion algebra over F with no finite ramification.

    It exists because F is quadratic: the two real places are an even
    number.  Walks the pairs of _structure_candidates, which reaches it,
    and accepts the first pair whose maximalized standard order
    certifies norm-1 reduced discriminant.
    """
    for a, b in _structure_candidates(F):
        alg = QuatAlgebra(F, a, b)
        R = maximalize(alg.standard_order())
        if reduced_discriminant_norm(R) == 1:
            return alg
        log.debug("structure constants %s, %s leave ramification", a, b)


# ---------------------------------------------------------------------------
# norm equations


def trace_form_gram(lat, w):
    """(gram, g): the Gram of Tr(w trd(x conj(y))) on lat is (2 g / D)
    gram, D = 2 den^2 the denominator of the norm forms.

    w is a field element with integer coordinates.  The Gram is taken on
    the basis rows of the lattice and built from its integer norm forms
    with the integer weights Tr(w w_k), w_k the integral basis of the
    field; gram is its primitive integer multiple and g the gcd divided
    out.  It is positive definite when w is totally positive.
    """
    F = lat.alg.base
    forms, _ = lat.norm_forms()
    # Tr(w trd(x conj y)) = (2 / D) sum_k Tr(w w_k) x forms[k] y^T, and
    # row k of the matrix of w is w_k w; the field is quadratic, k = 0, 1
    t0, t1 = (F.trace(row) for row in F.rep_rows(w))
    gram = [[t0 * a + t1 * b for a, b in zip(r0, r1)] for r0, r1 in zip(*forms)]
    g = gcd(*(v for row in gram for v in row))
    return [[v // g for v in row] for row in gram], g


def _norm_shell(lat, alpha):
    """The shell search for nr(x) = alpha on lat: (gram, value, forms) for
    latticetools.iter_norm, all in ints, or None when no lattice vector
    can have that norm.

    A solution x has D nr(x) = A for the integer A = D alpha, since the
    norm forms take integer values, so a target whose A is not integral
    has none.  With w = sigma(A) the conjugate, w nr(x) = N(A) / D, a
    rational number, so x lies on the shell Tr(w trd(x conj x)) =
    2 n N(A) / D (n = 2 the field degree) of the form weighted by w,
    whose Gram is (2 g / D) gram (trace_form_gram): the shell value on
    the integer gram is 2 N(A) / g.  The
    weight is totally positive exactly when alpha is, N(alpha) > 0 and
    Tr(alpha) > 0, which makes the form definite and the shell finite.
    gram is integral, so a value that is not an integer has no vector on
    it.  A shell vector is kept when each norm form takes the value A_k
    on it; the forms are tested on the LLL-reduced coordinates, and only
    solutions are mapped back.  No ambient vector and no Fraction is
    built per shell vector.
    """
    F = lat.alg.base
    alpha = F.from_int(alpha) if isinstance(alpha, (int, Fraction)) else F.el(alpha)
    if F.norm(alpha) <= 0 or F.trace(alpha) <= 0:
        raise ValueError("norm target must be totally positive")
    forms, D = lat.norm_forms()
    A = [D * a for a in alpha]
    if any(v.denominator != 1 for v in A):
        return None  # D nr(x) is integral on the lattice
    A = [v.numerator for v in A]
    gram, g = trace_form_gram(lat, (A[0] + F.t1 * A[1], -A[1]))
    value, rest = divmod(2 * F.norm(A), g)
    if rest:
        return None  # gram is integral
    return gram, value, list(zip(forms, A))


def iter_norm_equation_coords(lat, alpha):
    """The x with nr(sum_i x_i rows[i] / den) = alpha, one per +-pair,
    in the order the shell walk finds them (_norm_shell).

    x runs over integer coordinate vectors on the basis rows of the
    lattice, with the first nonzero entry positive.  The walk is lazy:
    a caller stops it by dropping the iterator.  A target that is not
    totally positive raises ValueError at the call.
    """
    shell = _norm_shell(lat, alpha)
    return iter(()) if shell is None else iter_norm(*shell)


def norm_equation_solutions(lat, alpha):
    """All x in the lattice with nr(x) = alpha, one per +-pair, sorted.

    The whole walk of iter_norm_equation_coords, sorted by
    latticetools.enumerate_norm and mapped to ambient vectors.  The basis
    rows are upper triangular with a positive diagonal, so the order and
    sign of the coordinate vectors are those of the ambient vectors:
    sign-normalized (first nonzero coordinate positive) and in
    lexicographic order.
    """
    shell = _norm_shell(lat, alpha)
    return [] if shell is None else [lat.vector(x) for x in enumerate_norm(*shell).vectors]
