"""Finite algebras over F_p arising as quotients of integer lattices.

This module carries the characteristic-p workhorses: dense linear algebra
mod p, quotient constructions L/M for p-elementary lattice pairs, the
quotient of an algebra by a two-sided ideal, the primitive idempotents of
commutative algebras (which locate the maximal two-sided ideals that
maximal-order enlargement lifts), the explicit splitting of a rank-4
quotient algebra as 2x2 matrices over its center, and finite fields as
log tables (FiniteField), on which the 2x2 matrices and projective lines
of the level structure run.  Fermat powers give the primitive
idempotents (_nil_idempotent), and one quadratic relation over the
center gives the splitting (MatrixSplitting._find_idempotent): no
polynomial is factored.

Vectors are tuples of ints mod p; matrices are tuples of row tuples.
Elements of a FiniteField are single ints, coded by discrete logarithm.
Randomized searches draw from fixed random streams, so every run picks
the same splitting.  A quotient L/M inverts the HNF basis of L once: integer
vectors reach quotient coordinates by one integer product, and products
come from the ambient algebra's integer structure table.
"""

import itertools
import random

from .arith import factor_int
from .intmat import hnf_rows, int_product, integral_rows, inverse_rows, lattice_coords


# ---------------------------------------------------------------------------
# dense linear algebra mod p


def vec_mod(v, p):
    return tuple(int(c) % p for c in v)


def rref_mod(rows, p):
    """Row-reduce mod p. Returns (rref rows, pivot column list)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c] % p, p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] % p:
                f = mat[i][c] % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat), pivots


def rank_mod(rows, p):
    return len(rref_mod(rows, p)[1])


def kernel_mod(rows, p):
    """Basis of the right kernel {x : rows . x = 0}."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref_mod(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [0] * ncols
        x[fc] = 1
        for r, pc in enumerate(pivots):
            x[pc] = (-red[r][fc]) % p
        basis.append(tuple(x))
    return basis


def solve_right_mod(rows, target, p):
    """One solution x of rows . x = target, or None."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(rows[i]) + [target[i] % p] for i in range(nrows)]
    red, pivots = rref_mod(aug, p)
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][ncols]
    return tuple(x)


def in_span_mod(rows, v, p):
    if not rows:
        return all(c % p == 0 for c in v)
    return rank_mod(list(rows) + [v], p) == rank_mod(rows, p)


def span_basis_mod(rows, p):
    """Canonical (rref) basis of the row span."""
    red, piv = rref_mod(rows, p)
    return [red[i] for i in range(len(piv))]


def matmul_mod(a, b, p):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a
    )


# ---------------------------------------------------------------------------
# algebras


class FpAlgebra:
    """Associative unital algebra over F_p with explicit structure constants.

    mult[i][j] is the coordinate vector of e_i * e_j; one is the identity.
    """

    def __init__(self, p, mult, one):
        self.p = p
        self.dim = len(mult)
        self.mult = tuple(tuple(vec_mod(v, p) for v in row) for row in mult)
        self.one = vec_mod(one, p)

    def zero(self):
        return (0,) * self.dim

    def unit(self, j):
        return tuple(1 if t == j else 0 for t in range(self.dim))

    def add(self, x, y):
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def sub(self, x, y):
        p = self.p
        return tuple((a - b) % p for a, b in zip(x, y))

    def smul(self, c, x):
        p = self.p
        c %= p
        return tuple((c * a) % p for a in x)

    def mul(self, x, y):
        p = self.p
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            mi = self.mult[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = (xi * yj) % p
                row = mi[j]
                for k, rk in enumerate(row):
                    if rk:
                        out[k] = (out[k] + c * rk) % p
        return tuple(out)

    def pow(self, x, e):
        result = self.one
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def rep_left(self, x):
        """Matrix of y -> x*y on coordinate columns."""
        cols = [self.mul(x, self.unit(j)) for j in range(self.dim)]
        return tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim))

    def rep_right(self, x):
        cols = [self.mul(self.unit(j), x) for j in range(self.dim)]
        return tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim))

    def elements(self):
        """All p^dim coordinate vectors, lexicographic. Only for tiny algebras."""
        return itertools.product(range(self.p), repeat=self.dim)

    def frobenius_matrix(self):
        cols = [self.pow(self.unit(j), self.p) for j in range(self.dim)]
        return tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim))


def center_rows(A):
    """Canonical (rref) basis rows of the center of A."""
    p = A.p
    stack = []
    for l in range(A.dim):
        lm = A.rep_left(A.unit(l))
        rm = A.rep_right(A.unit(l))
        for i in range(A.dim):
            stack.append(tuple((lm[i][j] - rm[i][j]) % p for j in range(A.dim)))
    return span_basis_mod(kernel_mod(tuple(stack), p), p)


def subalgebra(A, basis_rows, identity):
    """Algebra structure on a multiplicatively closed independent span.

    identity is the unit of the subalgebra (an idempotent of A) in A
    coordinates. Coordinates of the result are w.r.t. basis_rows.
    """
    p = A.p
    cols = tuple(zip(*basis_rows))
    mult = []
    for x in basis_rows:
        row = []
        for y in basis_rows:
            c = solve_right_mod(cols, A.mul(x, y), p)
            if c is None:
                raise ValueError("span not multiplicatively closed")
            row.append(c)
        mult.append(row)
    one = solve_right_mod(cols, identity, p)
    if one is None:
        raise ValueError("identity not in span")
    return FpAlgebra(p, mult, one)


# ---------------------------------------------------------------------------
# quotients of integer lattices


def sparse_table(table):
    """Row t: the nonzero structure constants (s, u, table[s][t][u]) of
    the dense table with e_s * e_t = sum_u table[s][t][u] e_u."""
    n = len(table)
    return [
        [(s, u, table[s][t][u]) for s in range(n) for u in range(n) if table[s][t][u]]
        for t in range(n)
    ]


def right_multiplication(sparse, y):
    """The integer m with x * y = x m, for an integer vector y and the
    table sparse (as sparse_table): row s is e_s * y."""
    n = len(sparse)
    m = [[0] * n for _ in range(n)]
    for t, yt in enumerate(y):
        if yt:
            for s, u, c in sparse[t]:
                m[s][u] += c * yt
    return m


class QuotientSpace:
    """The F_p-vector space L/M for lattices M <= L with pL <= M <= L.

    Lattices are (rows, den) pairs of integer rows in a common ambient
    coordinate system; the rows of L are an HNF basis.  Elementary
    divisors of M in L must all be 1 or p.  No multiplicative
    structure is assumed; LatticeQuotient adds one.
    """

    def __init__(self, L_rows, L_den, M_rows, M_den, p):
        n = len(L_rows)
        self.p = p
        self.L_rows = L_rows
        self.L_den = L_den
        self._inv = inverse_rows(L_rows)
        H = hnf_rows(self.coords(M_rows, M_den))
        if len(H) != n:
            raise ValueError("sublattice not full rank")
        for i, row in enumerate(H):
            if row[i] not in (1, p):
                raise ValueError("quotient is not p-elementary")
        self.H = H
        self.positions = [i for i in range(n) if H[i][i] == p]
        self.dim = len(self.positions)

    def coords(self, rows, den):
        """Integer coordinates over L of the integer vectors rows[i] / den."""
        out = lattice_coords(self._inv, self.L_den, rows, den)
        if out is None:
            raise ValueError("vector not in lattice")
        return out

    def reduce(self, w):
        """Quotient coordinates of the element with integer coordinates w over L."""
        w = list(w)
        H = self.H
        for j in range(len(w)):
            q = w[j] // H[j][j]
            if q:
                for t in range(j, len(w)):
                    w[t] -= q * H[j][t]
        return tuple(w[pos] % self.p for pos in self.positions)

    def proj(self, vec_ambient):
        """Reduce an ambient rational vector lying in L to quotient coordinates."""
        d, rows = integral_rows([vec_ambient])
        return self.reduce(self.coords(rows, d)[0])

    def lift(self, coords):
        """A representative in ambient coordinates: an integer row over
        L_den."""
        n = len(self.L_rows)
        out = [0] * n
        for c, pos in zip(coords, self.positions):
            if c % self.p:
                row = self.L_rows[pos]
                for t in range(n):
                    out[t] += c * row[t]
        return out

    def right_action(self, sparse, ys, den):
        """The F_p-matrices of v -> v * y on L/M, for y = ys[i] / den.

        sparse is the integer structure table of the ambient algebra in
        the form of sparse_table: row t lists the nonzero (s, u, c) with
        c the coefficient of e_u in e_s * e_t.  Row t of a matrix holds
        the quotient coordinates of b_t * y, b_t the lift of the t-th
        basis vector; L * y must lie in L and M * y in M.
        """
        reps = [self.L_rows[pos] for pos in self.positions]
        out = []
        for y in ys:
            prods = self.coords(int_product(reps, right_multiplication(sparse, y)), self.L_den * den)
            out.append(tuple(self.reduce(w) for w in prods))
        return out


class LatticeQuotient(QuotientSpace):
    """QuotientSpace carrying the induced F_p-algebra structure.

    sparse is the integer structure table of the ambient algebra in the
    form of sparse_table (as QuatAlgebra.sparse_table), whose first basis
    vector is the identity.  L must be a ring and M a two-sided ideal of
    it.
    """

    def __init__(self, L_rows, L_den, M_rows, M_den, p, sparse):
        super().__init__(L_rows, L_den, M_rows, M_den, p)
        mats = self.right_action(sparse, [L_rows[pos] for pos in self.positions], L_den)
        mult = [[m[i] for m in mats] for i in range(self.dim)]
        self.algebra = FpAlgebra(p, mult, self.proj([1] + [0] * (len(L_rows) - 1)))


# ---------------------------------------------------------------------------
# quotients by ideals


def quotient_by_ideal(A, ideal_rows):
    """(A/I, projection matrix quot-coords x A-coords) for an ideal I."""
    p = A.p
    ideal_basis = span_basis_mod(ideal_rows, p) if ideal_rows else []
    piv = [next(j for j, c in enumerate(row) if c) for row in ideal_basis]
    pivset = set(piv)
    comp_positions = [j for j in range(A.dim) if j not in pivset]

    def proj(v):
        w = list(v)
        for r, pc in zip(ideal_basis, piv):
            f = w[pc] % p
            if f:
                w = [(a - f * b) % p for a, b in zip(w, r)]
        return tuple(w[j] % p for j in comp_positions)

    lift_rows = [A.unit(pos) for pos in comp_positions]
    mult = [[proj(A.mul(x, y)) for y in lift_rows] for x in lift_rows]
    quot = FpAlgebra(p, mult, proj(A.one))
    proj_cols = [proj(A.unit(j)) for j in range(A.dim)]
    proj_mat = tuple(
        tuple(proj_cols[j][i] for j in range(A.dim)) for i in range(quot.dim)
    )
    return quot, proj_mat


# ---------------------------------------------------------------------------
# idempotents of commutative algebras


def _nil_idempotent(A, y):
    """The idempotent 1 - y^(p-1) of the part of F_p[y] on which y is
    nilpotent, p = A.p.

    F_p[y] is commutative, a product of local algebras; on each, y is
    nilpotent or a unit.  When y^p = y, as for y = z - c with z fixed by
    Frobenius and c in F_p, every nilpotency index is 1 and every unit
    order divides p - 1, so y^(p-1) is 0 on the first kind and 1 on the
    second.  Certificate: e^2 = e, else ArithmeticError.
    """
    e = A.sub(A.one, A.pow(y, A.p - 1))
    if A.mul(e, e) != e:
        raise ArithmeticError("power is not idempotent")
    return e


def primitive_idempotents(A):
    """The primitive idempotents of a commutative F_p-algebra.

    x -> x^p is linear, and its fixed space is spanned by the primitive
    idempotents (Berlekamp): a fixed point takes a value c in F_p on each
    local factor.  For fixed z, 1 - (z - c)^(p-1) is the sum of the
    primitive idempotents on which z takes the value c, so refining {1}
    by every basis vector of the fixed space, value by value, ends at
    the primitive idempotents: a basis tells any two of them apart.
    Certificate: their count is the dimension of the fixed space, else
    ArithmeticError.  They come sorted by the canonical (rref) basis of
    the ideal e * A, so the order is deterministic.
    """
    p = A.p
    fr = A.frobenius_matrix()
    fixed = kernel_mod(
        tuple(tuple((fr[i][j] - (i == j)) % p for j in range(A.dim)) for i in range(A.dim)), p
    )
    idems = [A.one]
    for z in fixed:
        parts = [_nil_idempotent(A, A.sub(z, A.smul(c, A.one))) for c in range(p)]
        idems = [f for f in (A.mul(e, g) for e in idems for g in parts) if any(f)]
    if len(idems) != len(fixed):
        raise ArithmeticError("idempotent count differs from the Frobenius-fixed dimension")
    return sorted(idems, key=lambda e: span_basis_mod([A.mul(e, A.unit(j)) for j in range(A.dim)], p))


# ---------------------------------------------------------------------------
# splitting a quotient order as a matrix algebra


class MatrixSplitting:
    """Isomorphism A -> M_2(k) for a 4f-dimensional algebra with center k.

    Entry coordinates refer to the caller-fixed basis of k supplied as
    unit_embedding (images in A of that basis), so the identification of
    the center is pinned once and shared by every consumer.  k is built
    on that basis as a FiniteField, where _find_idempotent finds roots.
    """

    def __init__(self, A, unit_embedding):
        p = A.p
        self.A = A
        self.p = p
        f = len(unit_embedding)
        self.f = f
        if A.dim != 4 * f:
            raise ValueError("dimension is not 4 over the supposed center")
        center = center_rows(A)
        if len(center) != f:
            raise ArithmeticError("center has unexpected dimension")
        for row in unit_embedding:
            if not in_span_mod(center, row, p):
                raise ArithmeticError("unit embedding does not centralize")
        self.k_basis = [vec_mod(r, p) for r in unit_embedding]
        self.k = FiniteField(subalgebra(A, self.k_basis, A.one))
        self._build_units(self._find_idempotent())

    def _scalar(self, a):
        """The central element of A that the code a of k stands for."""
        return vec_mod(int_product([self.k.coords(a)], self.k_basis)[0], self.p)

    def _find_idempotent(self):
        """The rank-one idempotent (v - mu) / (lambda - mu) for v, the first
        non-central draw of a fixed random stream whose relation
        v^2 = t v - n over k (one solve over the columns k_i v and -k_i)
        has two distinct roots lambda != mu in k.  A central c satisfies
        (x - c)(x - s) for every s, which can give e = 0 or 1, so central
        draws are skipped.  Certificate: e^2 = e, e != 0, 1, else
        ArithmeticError."""
        A, p, f, k, kb = self.A, self.p, self.f, self.k, self.k_basis
        # one fixed stream: the same splitting, so the same neighbor order
        # and level codes, on every run
        rng = random.Random(0)
        for _ in range(500):
            v = tuple(rng.randrange(p) for _ in range(A.dim))
            if in_span_mod(kb, v, p):
                continue
            cols = [A.mul(z, v) for z in kb] + [A.smul(-1, z) for z in kb]
            sol = solve_right_mod(tuple(zip(*cols)), A.mul(v, v), p)
            if sol is None:
                continue
            roots = quadratic_roots(k, k.code(sol[:f]), k.code(sol[f:]))
            if len(roots) < 2:
                continue
            lam, mu = roots
            e = A.mul(self._scalar(k.inv(k.sub(lam, mu))), A.sub(v, self._scalar(mu)))
            if A.mul(e, e) != e or e in (A.zero(), A.one):
                raise ArithmeticError("quadratic relation gives no nontrivial idempotent")
            return e
        raise ArithmeticError("no splitting idempotent found")

    def _build_units(self, e):
        A, p, f = self.A, self.p, self.f
        e11, e22 = e, A.sub(A.one, e)
        corner = self._corner_basis(e11, e11)
        if len(corner) != f:
            raise ArithmeticError("idempotent corner has wrong dimension")
        p12 = self._corner_basis(e11, e22)
        p21 = self._corner_basis(e22, e11)
        u = p12[0]
        cols = tuple(zip(*[A.mul(u, b) for b in p21]))
        sol = solve_right_mod(cols, e11, p)
        if sol is None:
            raise ArithmeticError("matrix unit completion failed")
        v = A.zero()
        for c, b in zip(sol, p21):
            v = A.add(v, A.smul(c, b))
        if A.mul(v, u) != e22:
            raise ArithmeticError("matrix unit relations fail")
        self.e = (e11, u, v, e22)
        self.corner_basis = [A.mul(z, e11) for z in self.k_basis]
        self._corner_cols = tuple(zip(*self.corner_basis))

    def _corner_basis(self, el, er):
        A, p = self.A, self.p
        rows = [A.mul(el, A.mul(A.unit(j), er)) for j in range(A.dim)]
        return span_basis_mod(rows, p)

    def image(self, x):
        """2x2 matrix over k; entries are coordinate tuples in the k basis."""
        A, p = self.A, self.p
        e11, u, v, e22 = self.e
        pre = (e11, u)
        post = (e11, v)
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                y = A.mul(pre[i], A.mul(x, post[j]))
                c = solve_right_mod(self._corner_cols, y, p)
                if c is None:
                    raise ArithmeticError("element does not reduce into the corner")
                row.append(tuple(c))
            out.append(tuple(row))
        return tuple(out)


# ---------------------------------------------------------------------------
# finite fields as log tables, 2x2 matrices over them, the projective line


class FiniteField:
    """The field A of q = p^f elements, its elements coded as ints 0 ... q-1.

    0 is zero and 1 + i stands for g^i, g the first primitive element of A
    in the lexicographic order of its coordinate tuples.  Products and
    inverses add and negate exponents mod q - 1; sums go through the Zech
    logarithm, the code of 1 + g^i.  Built once from A, a commutative
    algebra that must be a field: g^(q-1) = 1 and the q - 1 powers of g
    are certified distinct, so every nonzero element is a unit.  A
    non-field has no element of order q - 1 and raises ArithmeticError.
    """

    def __init__(self, A):
        p, f = A.p, A.dim
        q = p**f
        n = q - 1
        self.p, self.f, self.q, self.n = p, f, q, n
        primes = list(factor_int(n)) if n > 1 else []
        for g in itertools.islice(A.elements(), 1, None):
            if A.pow(g, n) == A.one and all(A.pow(g, n // r) != A.one for r in primes):
                break
        else:
            raise ArithmeticError("algebra is not a field")
        powers = [A.one]
        for _ in range(n - 1):
            powers.append(A.mul(powers[-1], g))
        index = [self._index(x) for x in powers]
        if len(set(index)) != n:
            raise ArithmeticError("powers of the generator are not distinct")
        self._exp = powers
        # the code of the element with lexicographic index t, and back
        self._code = [0] * q
        self._lex = [0] * q
        for i, t in enumerate(index):
            self._code[t] = 1 + i
            self._lex[1 + i] = t
        self._zech = [self.code(A.add(A.one, x)) for x in powers]
        # -1 is g^(n/2) in odd characteristic, and 1 in characteristic 2
        self._half = n // 2 if p != 2 else 0

    def _index(self, x):
        """Lexicographic index of a coordinate tuple, first entry leading."""
        t = 0
        for c in x:
            t = t * self.p + c
        return t

    def code(self, x):
        """Code of the element with coordinate tuple x."""
        return self._code[self._index(x)]

    def coords(self, a):
        """Coordinate tuple of the element coded a."""
        return self._exp[a - 1] if a else (0,) * self.f

    def elements(self):
        """All codes, in the lexicographic order of their coordinate tuples."""
        return list(self._code)

    def mul(self, a, b):
        return a and b and (a + b - 2) % self.n + 1

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("zero has no inverse")
        return (1 - a) % self.n + 1

    def neg(self, a):
        return a and (a - 1 + self._half) % self.n + 1

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        z = self._zech[(b - a) % self.n]
        return z and (a + z - 2) % self.n + 1

    def sub(self, a, b):
        return self.add(a, self.neg(b))


def quadratic_roots(k, t, n):
    """The codes x of k, ascending, with x^2 - t x + n = 0."""
    return [x for x in range(k.q) if not k.add(k.sub(k.mul(x, x), k.mul(t, x)), n)]


def mat2_mul(k, M, N):
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            row.append(k.add(k.mul(M[i][0], N[0][j]), k.mul(M[i][1], N[1][j])))
        out.append(tuple(row))
    return tuple(out)


def mat2_det(k, M):
    return k.sub(k.mul(M[0][0], M[1][1]), k.mul(M[0][1], M[1][0]))


def p1_act(k, M, i):
    """Index of the image of the point with index i of P^1(k) under the
    column action (x, y) -> (a x + b y, c x + d y) of M.

    Index i < q is the point (1 : y), y the i-th element of k in the
    lexicographic order of its coordinate tuples (k.elements()); index q
    is (0 : 1).  A matrix that sends the point to (0 : 0) raises
    ValueError.
    """
    (a, b), (c, d) = M
    if i < k.q:
        y = k._code[i]
        x, y = k.add(a, k.mul(b, y)), k.add(c, k.mul(d, y))
    else:
        x, y = b, d
    if x:
        return k._lex[k.mul(k.inv(x), y)]
    if y:
        return k.q
    raise ValueError("not a projective point over a field")
