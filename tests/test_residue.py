import functools
import math
import random
from fractions import Fraction

import pytest

from quatforms import quaternion
from quatforms.classset import split_residue_matrix
from quatforms.intmat import identity_int, int_product
from quatforms.numberfield import field_from_spec
from quatforms.polynomials import _poly_xgcd_mod, _zdivmod_monic, _zmod, _zmul, factor_mod_p
from quatforms.residue import (
    FiniteField,
    FpAlgebra,
    LatticeQuotient,
    MatrixSplitting,
    _nil_idempotent,
    in_span_mod,
    kernel_mod,
    mat2_det,
    mat2_mul,
    matmul_mod,
    p1_act,
    primitive_idempotents,
    quotient_by_ideal,
    rank_mod,
    rref_mod,
    solve_right_mod,
    span_basis_mod,
    sparse_table,
    subalgebra,
)


def test_linear_algebra_mod_p():
    rng = random.Random(2)
    for p in (2, 3, 5, 13):
        for _ in range(15):
            rows = tuple(
                tuple(rng.randrange(p) for _ in range(4)) for _ in range(3)
            )
            red, piv = rref_mod(rows, p)
            assert rank_mod(rows, p) == len(piv)
            ker = kernel_mod(rows, p)
            assert len(ker) == 4 - len(piv)
            for v in ker:
                for r in rows:
                    assert sum(a * b for a, b in zip(r, v)) % p == 0
            target = tuple(
                sum(r[j] for r in rows) % p for j in range(4)
            )  # sum of columns = rows . (1,1,1,1)
            x = solve_right_mod(tuple(zip(*rows)), target, p)
            assert x is not None


def test_solve_right_mod_no_solution():
    rows = ((1, 0), (0, 0))
    assert solve_right_mod(rows, (0, 1), 5) is None


def test_span_and_membership():
    rows = [(1, 2, 0), (2, 4, 0), (0, 0, 1)]
    basis = span_basis_mod(rows, 5)
    assert len(basis) == 2
    assert in_span_mod(basis, (3, 6, 2), 5)
    assert not in_span_mod(basis, (0, 1, 0), 5)


def _field_f25():
    # F_5[x]/(x^2+2), basis (1, x); -2 is not a square mod 5
    mult = [
        [(1, 0), (0, 1)],
        [(0, 1), (3, 0)],
    ]
    return FpAlgebra(5, mult, (1, 0))


def ref_inv(A, x):
    """The inverse of x != 0 in a field A of order q, as x^(q - 2)."""
    return A.pow(x, A.p ** A.dim - 2)


def test_fp_algebra_field_basics():
    k = _field_f25()
    x = (0, 1)
    assert k.minpoly(x) == [2, 0, 1]
    assert k.mul(x, x) == (3, 0)
    assert k.mul(x, ref_inv(k, x)) == k.one
    assert k.mul((2, 3), ref_inv(k, (2, 3))) == k.one
    # Frobenius fixes exactly the prime field
    fr = k.frobenius_matrix()
    delta = tuple(
        tuple((fr[i][j] - int(i == j)) % 5 for j in range(2)) for i in range(2)
    )
    assert len(kernel_mod(delta, 5)) == 1
    assert primitive_idempotents(k) == [k.one]


def _check_idempotents(A, idems, count):
    """count idempotents, each e^2 = e, orthogonal in pairs, summing to 1."""
    assert len(idems) == count
    total = A.zero()
    for i, e in enumerate(idems):
        assert e != A.zero() and A.mul(e, e) == e
        for f in idems[i + 1:]:
            assert A.mul(e, f) == A.zero()
        total = A.add(total, e)
    assert total == A.one


def test_primitive_idempotents_split():
    # F_5[x]/(x^2-1) = F_5 x F_5
    mult = [
        [(1, 0), (0, 1)],
        [(0, 1), (1, 0)],
    ]
    a = FpAlgebra(5, mult, (1, 0))
    idems = primitive_idempotents(a)
    _check_idempotents(a, idems, 2)
    # (1 + x)/2 and (1 - x)/2, sorted by the rref basis of e * A:
    # (1, 1) before (1, 4)
    assert idems == [(3, 3), (3, 2)]
    # x - 1 and x + 1 vanish on different components
    assert a.mul(idems[0], (4, 1)) == a.zero()
    assert a.mul(idems[1], (1, 1)) == a.zero()


def test_idempotent_certificates_under_optimize(run_optimized):
    # over F_5[x]/(x^2 - 1), 1 - (x - 1)^4 is (1 + x) / 2; the exponent 2
    # there, the exponent 1 for x over F_5[x]/(x^2) (below its nilpotency
    # index), and an extra fixed vector that makes the Frobenius-fixed
    # space look larger than the idempotent count must each raise with
    # asserts stripped
    out = run_optimized(
        "from quatforms import residue\n"
        "split = residue.FpAlgebra(5, [[(1, 0), (0, 1)], [(0, 1), (1, 0)]], (1, 0))\n"
        "dual = residue.FpAlgebra(5, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0))\n"
        "kernel = residue.kernel_mod\n"
        "def extra(rows, p):\n"
        "    basis = kernel(rows, p)\n"
        "    return basis + [tuple(2 * c % p for c in basis[-1])]\n"
        "calls = (lambda: residue._nil_idempotent(split, (4, 1), 4),\n"
        "         lambda: residue._nil_idempotent(split, (4, 1), 2),\n"
        "         lambda: residue._nil_idempotent(dual, (0, 1), 1),\n"
        "         lambda: setattr(residue, 'kernel_mod', extra) or residue.primitive_idempotents(split))\n"
        "for call in calls:\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except ArithmeticError as exc:\n"
        "        print('ArithmeticError:', exc)\n"
    )
    assert out.splitlines() == ["returned (3, 3)"] + ["ArithmeticError: power is not idempotent"] * 2 + [
        "ArithmeticError: idempotent count differs from the Frobenius-fixed dimension"]


def test_primitive_idempotents_nilpotent():
    # F_5[x]/(x^2): local with one dimensional radical, so the only
    # idempotent is 1 although the Frobenius kernel is nonzero
    mult = [
        [(1, 0), (0, 1)],
        [(0, 1), (0, 0)],
    ]
    a = FpAlgebra(5, mult, (1, 0))
    _check_idempotents(a, primitive_idempotents(a), 1)


def test_primitive_idempotents_many_factors():
    # F_3 x F_3 x F_9 x F_3[u]/(u^2) on a mixed basis: four local factors
    # behind a change of coordinates that hides the product structure
    p = 3
    blocks = [1, 1, 2, 2]
    n = sum(blocks)

    def block_mul(x, y):
        out, pos = [], 0
        for size, kind in zip(blocks, ("f", "f", "f9", "nil")):
            a, b = x[pos:pos + size], y[pos:pos + size]
            if size == 1:
                out.append(a[0] * b[0] % p)
            elif kind == "f9":
                # F_3[t]/(t^2 + 1)
                out += [(a[0] * b[0] - a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p]
            else:
                out += [a[0] * b[0] % p, (a[0] * b[1] + a[1] * b[0]) % p]
            pos += size
        return tuple(out)

    change = [[1, 1, 0, 0, 0, 0], [0, 1, 2, 0, 1, 0], [0, 0, 1, 1, 0, 0],
              [1, 0, 0, 1, 0, 2], [0, 0, 0, 0, 1, 1], [0, 2, 0, 0, 0, 1]]
    cols = tuple(zip(*change))

    def coords(v):
        return solve_right_mod(cols, v, p)

    mult = [[coords(block_mul(x, y)) for y in change] for x in change]
    one = coords((1, 1, 1, 0, 1, 0))
    a = FpAlgebra(p, mult, one)
    _check_idempotents(a, primitive_idempotents(a), 4)


def test_subalgebra_rejects_bad_span():
    a = _field_f25()
    with pytest.raises(ValueError):
        subalgebra(a, [(0, 1)], a.one)


# --- quotients of lattices: Z[i] at several primes ---


def _gauss_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


# e_s * e_t on the basis (1, i) of Z[i]
GAUSS_TABLE = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]]


def _gauss_quotient(m_rows, p):
    return LatticeQuotient([[1, 0], [0, 1]], 1, m_rows, 1, p, sparse_table(GAUSS_TABLE))


def test_gauss_split_prime():
    q = _gauss_quotient([[5, 0], [0, 5]], 5)
    assert q.algebra.dim == 2
    _check_idempotents(q.algebra, primitive_idempotents(q.algebra), 2)


def test_gauss_inert_prime():
    q = _gauss_quotient([[3, 0], [0, 3]], 3)
    _check_idempotents(q.algebra, primitive_idempotents(q.algebra), 1)


def test_gauss_ramified_prime():
    q = _gauss_quotient([[2, 0], [0, 2]], 2)
    _check_idempotents(q.algebra, primitive_idempotents(q.algebra), 1)


def test_gauss_prime_ideal_quotient():
    # modulo (2 + i): one dimensional, the generator's vector dies
    q = _gauss_quotient([[5, 0], [2, 1]], 5)
    assert q.algebra.dim == 1
    assert q.proj((Fraction(2), Fraction(1))) == (0,)
    # proj is a ring map onto the quotient algebra
    rng = random.Random(8)
    for _ in range(10):
        u = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        v = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        assert q.proj(_gauss_mul(u, v)) == q.algebra.mul(q.proj(u), q.proj(v))
    # i^2 + 1 lies in the ideal, and lift inverts proj
    im_i = q.proj((Fraction(0), Fraction(1)))
    sq = q.algebra.mul(im_i, im_i)
    assert sq == q.proj((Fraction(-1), Fraction(0)))
    back = q.lift(im_i)
    assert q.proj(back) == im_i


def test_lattice_quotient_rejects_non_elementary():
    with pytest.raises(ValueError):
        _gauss_quotient([[25, 0], [0, 25]], 5)
    with pytest.raises(ValueError):
        _gauss_quotient([[5, 0], [5, 0]], 5)
    with pytest.raises(ValueError):
        LatticeQuotient(
            [[1, 0], [0, 1]], 1, [[1, 0], [0, 3]], 2, 3, sparse_table(GAUSS_TABLE)
        )


# --- matrix splittings ---


def _m2_fp(p):
    # basis e11, e12, e21, e22
    def unit(i, j):
        m = [[0, 0], [0, 0]]
        m[i][j] = 1
        return m

    basis = [unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)]

    def to_vec(m):
        return (m[0][0] % p, m[0][1] % p, m[1][0] % p, m[1][1] % p)

    def mm(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]

    mult = [[to_vec(mm(x, y)) for y in basis] for x in basis]
    return FpAlgebra(p, mult, (1, 0, 0, 1))


def _coded(k, m):
    """A 2x2 matrix of coordinate tuples as a matrix of field codes."""
    return tuple(tuple(k.code(e) for e in row) for row in m)


def test_matrix_splitting_m2():
    a = _m2_fp(3)
    sp = MatrixSplitting(a, [(1, 0, 0, 1)])
    k = FiniteField(subalgebra(a, [(1, 0, 0, 1)], a.one))
    rng = random.Random(4)
    flat = []
    for _ in range(12):
        x = tuple(rng.randrange(3) for _ in range(4))
        y = tuple(rng.randrange(3) for _ in range(4))
        ix, iy = _coded(k, sp.image(x)), _coded(k, sp.image(y))
        assert _coded(k, sp.image(a.mul(x, y))) == mat2_mul(k, ix, iy)
    for j in range(4):
        m = sp.image(a.unit(j))
        flat.append((m[0][0][0], m[0][1][0], m[1][0][0], m[1][1][0]))
    assert rank_mod(flat, 3) == 4
    assert _coded(k, sp.image(a.one)) == ((1, 0), (0, 1))


def _hamilton_mod_p(p):
    # basis 1, i, j, k with i^2 = j^2 = -1, ij = k
    table = {
        (0, 0): (1, 0, 0, 0), (0, 1): (0, 1, 0, 0), (0, 2): (0, 0, 1, 0), (0, 3): (0, 0, 0, 1),
        (1, 0): (0, 1, 0, 0), (1, 1): (-1, 0, 0, 0), (1, 2): (0, 0, 0, 1), (1, 3): (0, 0, -1, 0),
        (2, 0): (0, 0, 1, 0), (2, 1): (0, 0, 0, -1), (2, 2): (-1, 0, 0, 0), (2, 3): (0, 1, 0, 0),
        (3, 0): (0, 0, 0, 1), (3, 1): (0, 0, 1, 0), (3, 2): (0, -1, 0, 0), (3, 3): (-1, 0, 0, 0),
    }
    mult = [[table[(i, j)] for j in range(4)] for i in range(4)]
    return FpAlgebra(p, mult, (1, 0, 0, 0))


def test_matrix_splitting_hamilton():
    # Hamilton quaternions split at every odd prime; the reduced norm
    # a^2+b^2+c^2+d^2 must match the determinant through the splitting
    for p in (3, 5, 13):
        a = _hamilton_mod_p(p)
        sp = MatrixSplitting(a, [(1, 0, 0, 0)])
        k = FiniteField(subalgebra(a, [(1, 0, 0, 0)], a.one))
        rng = random.Random(p)
        for _ in range(20):
            x = tuple(rng.randrange(p) for _ in range(4))
            nrm = sum(c * c for c in x) % p
            assert mat2_det(k, _coded(k, sp.image(x))) == k.code((nrm,))


def test_matrix_splitting_seed_stability():
    # the idempotent search draws from a fixed seed: two constructions
    # pick the same matrix units, and the splitting is a ring map
    a = _hamilton_mod_p(5)
    sp0 = MatrixSplitting(a, [(1, 0, 0, 0)])
    sp1 = MatrixSplitting(a, [(1, 0, 0, 0)])
    assert sp0.e == sp1.e
    k = FiniteField(subalgebra(a, [(1, 0, 0, 0)], a.one))
    x, y = (1, 2, 3, 4), (0, 1, 4, 2)
    assert _coded(k, sp0.image(a.mul(x, y))) == mat2_mul(
        k, _coded(k, sp0.image(x)), _coded(k, sp0.image(y))
    )


def _crt_idempotent(A, v, mp, g):
    """(s h)(v) for mp = g h and s h = 1 mod g, by an extended gcd: the
    idempotent of the g-primary part of F_p[v]."""
    p = A.p
    h, _ = _zdivmod_monic(list(mp), g, p)
    s, _ = _poly_xgcd_mod(h, g, p)
    return A.evaluate(_zmod(_zmul(s, h), p), v)


@pytest.mark.parametrize("spec", ["quad:5", "quad:10", "quad:85"])
def test_power_idempotent_is_the_crt_idempotent(spec):
    # on R/qR for the maximal order R and every q of norm up to 30, the
    # power 1 - q0(v)^N of the splitting is the CRT idempotent of the
    # q0-primary factor of the minimal polynomial of v, for random v
    F = field_from_spec(spec)
    R = quaternion.maximalize(quaternion.hilbert_ramification_free_algebra(F).standard_order())
    rng = random.Random(spec)
    checked = 0
    for pr in F.prime_ideals_up_to(30):
        A, p = split_residue_matrix(R, pr).quo.algebra, pr.p
        for _ in range(8):
            v = tuple(rng.randrange(p) for _ in range(A.dim))
            mp = A.minpoly(v)
            fac = factor_mod_p(mp, p)
            if len(fac) < 2:
                continue
            (q0, e0), d = fac[0], len(mp) - 1
            g = functools.reduce(lambda f, _: _zmod(_zmul(f, list(q0)), p), range(e0), [1])
            order = p**d * (p ** math.lcm(*range(1, d + 1)) - 1)
            e = _nil_idempotent(A, A.evaluate(q0, v), order)
            assert e == _crt_idempotent(A, v, mp, g)
            assert e not in (A.zero(), A.one)
            checked += 1
    assert checked >= 20


def test_matrix_splitting_rejects_wrong_dimension():
    k = _field_f25()
    with pytest.raises(ValueError):
        MatrixSplitting(k, [(1, 0)])


def test_p1_points_and_action():
    # P^1(F_5) has the six indices 0 ... 5, and an invertible matrix
    # permutes them
    a = _m2_fp(5)
    k = FiniteField(subalgebra(a, [(1, 0, 0, 1)], a.one))
    assert k.q == 5
    m = ((1, 1), (0, 1))
    assert sorted(p1_act(k, m, i) for i in range(6)) == list(range(6))
    # (0 : 1), index 5, goes to (1 : 1) and then to (1 : 1/2)
    assert p1_act(k, m, 5) == k.elements().index(1)
    assert p1_act(k, m, p1_act(k, m, 5)) == k.elements().index(k.inv(k.add(1, 1)))
    # a matrix that sends (0 : 1) to (0 : 0) is rejected
    with pytest.raises(ValueError, match="not a projective point"):
        p1_act(k, ((1, 0), (0, 0)), 5)


def test_p1_normalize_rejects_zero_divisors():
    # F_5 x F_5 is not a field: (1, 0) is nonzero but has no inverse, no
    # element has multiplicative order 24, and no projective line is built
    k = FpAlgebra(5, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1))
    with pytest.raises(ArithmeticError, match="not a field"):
        FiniteField(k)


def test_p1_points_f4():
    # the residue field at an inert 2 has four elements, so five points:
    # the identity fixes each index, and the swap exchanges (0 : 1), index
    # 4, with (1 : 0), index 0
    mult = [
        [(1, 0), (0, 1)],
        [(0, 1), (1, 1)],
    ]
    f4 = FpAlgebra(2, mult, (1, 0))
    assert f4.minpoly((0, 1)) == [1, 1, 1]
    k = FiniteField(f4)
    assert [p1_act(k, ((1, 0), (0, 1)), i) for i in range(5)] == list(range(5))
    assert (p1_act(k, ((0, 1), (1, 0)), 4), p1_act(k, ((0, 1), (1, 0)), 0)) == (0, 4)


def ref_p1_normalize(A, x, y):
    """The projective line over FpAlgebra coordinates, as it was computed
    before fields became log tables: leading nonzero coordinate 1."""
    if any(x):
        return (A.one, A.mul(ref_inv(A, x), y))
    return (A.mul(ref_inv(A, y), x), A.one)


def ref_mat2_act(A, M, pt):
    x, y = pt
    nx = A.add(A.mul(M[0][0], x), A.mul(M[0][1], y))
    ny = A.add(A.mul(M[1][0], x), A.mul(M[1][1], y))
    return ref_p1_normalize(A, nx, ny)


def check_p1_act(A, k, matrices):
    """Decode every index of P^1(k) to FpAlgebra coordinates, (1 : y) with
    y the i-th element of A in lexicographic order and (0 : 1) last, and
    compare p1_act with ref_mat2_act at every point, for each invertible
    matrix of codes in matrices."""
    points = [(A.one, y) for y in A.elements()] + [(A.zero(), A.one)]
    assert len(set(points)) == k.q + 1
    checked = 0
    for M in matrices:
        if not mat2_det(k, M):
            continue
        MA = tuple(tuple(map(k.coords, row)) for row in M)
        for i, pt in enumerate(points):
            assert points[p1_act(k, M, i)] == ref_mat2_act(A, MA, pt)
        checked += 1
    return checked


FIELDS = {
    "F4": FpAlgebra(2, [[(1, 0), (0, 1)], [(0, 1), (1, 1)]], (1, 0)),
    # x^2 = -1, irreducible mod 3
    "F9": FpAlgebra(3, [[(1, 0), (0, 1)], [(0, 1), (2, 0)]], (1, 0)),
    "F31": FpAlgebra(31, [[(1,)]], (1,)),
    "F41": FpAlgebra(41, [[(1,)]], (1,)),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_finite_field_matches_fp_algebra(name):
    A = FIELDS[name]
    k = FiniteField(A)
    codes = k.elements()
    assert sorted(codes) == list(range(k.q)) and k.q == A.p ** A.dim
    assert [k.coords(a) for a in codes] == list(A.elements())
    assert k.coords(0) == A.zero() and k.coords(1) == A.one
    for a in codes:
        ca = k.coords(a)
        assert k.code(ca) == a
        assert k.coords(k.neg(a)) == A.sub(A.zero(), ca)
        if a:
            assert k.coords(k.inv(a)) == ref_inv(A, ca)
        for b in codes:
            cb = k.coords(b)
            assert k.coords(k.mul(a, b)) == A.mul(ca, cb)
            assert k.coords(k.add(a, b)) == A.add(ca, cb)
            assert k.coords(k.sub(a, b)) == A.sub(ca, cb)
    with pytest.raises(ZeroDivisionError):
        k.inv(0)
    # the column action on the projective line, against the FpAlgebra path
    rng = random.Random(k.q)
    matrices = [
        tuple(tuple(rng.choice(codes) for _ in range(2)) for _ in range(2)) for _ in range(20)
    ]
    assert check_p1_act(A, k, matrices)


SMALL_FIELDS = {
    "F2": FpAlgebra(2, [[(1,)]], (1,)),
    "F4": FIELDS["F4"],
    "F5": FpAlgebra(5, [[(1,)]], (1,)),
    "F9": FIELDS["F9"],
}


@pytest.mark.parametrize("name", sorted(SMALL_FIELDS))
def test_p1_act_matches_reference_for_every_matrix(name):
    # every invertible matrix at every point: |GL_2(F_q)| matrices
    A = SMALL_FIELDS[name]
    k = FiniteField(A)
    codes = range(k.q)
    matrices = [((a, b), (c, d)) for a in codes for b in codes for c in codes for d in codes]
    assert check_p1_act(A, k, matrices) == (k.q**2 - 1) * (k.q**2 - k.q)


def test_matmul_mod():
    a = ((1, 2), (3, 4))
    assert matmul_mod(a, a, 5) == ((2, 0), (0, 2))


# --- radicals of O/pO, including the small characteristic cases ---


def _order_radical(O, p):
    """(A, rad): the algebra O/pO and its radical rows by
    quaternion._residue_radical."""
    pO = [[p * c for c in row] for row in O.rows]
    A = LatticeQuotient(O.rows, O.den, pO, O.den, p, O.alg.sparse_table()).algebra
    return A, quaternion._residue_radical(O, A, p)


@functools.cache
def _algebra(spec):
    return quaternion.hilbert_ramification_free_algebra(field_from_spec(spec))


def _maximal(spec):
    return quaternion.maximalize(_algebra(spec).standard_order())


def test_radical_semisimple_cases():
    # a maximal order at an unramified p is M_2 over the residue fields
    # mod p, so its radical is zero even at p = 2: 2 is inert in quad:5
    # and quad:13 and split in quad:41
    for spec in ("quad:5", "quad:13", "quad:41"):
        assert _order_radical(_maximal(spec), 2)[1] == []


def test_radical_disguised_nilpotent():
    # the standard order of quad:5 is Z_F<i, j> with i^2 = j^2 = -1:
    # i^2 = 1 in characteristic 2 makes 1 + i nilpotent, not a unit
    O = _algebra("quad:5").standard_order()
    A, rad = _order_radical(O, 2)
    one_plus_i = (1, 0, 1, 0, 0, 0, 0, 0)
    assert A.mul(one_plus_i, one_plus_i) == A.zero()
    assert in_span_mod(rad, one_plus_i, 2)


def test_radical_nilpotents_char_two():
    # every trd(b_i conj b_j) on the standard order of quad:5 is even, so
    # the trace conditions keep all of O/2O, and the radical is cut out
    # by the reduced norm alone
    O = _algebra("quad:5").standard_order()
    forms, D = O.norm_forms()
    assert all(c // (D // 2) % 2 == 0 for N in forms for row in N for c in row)
    assert len(_order_radical(O, 2)[1]) == 6


def test_radical_quaternion_ramified_shape():
    # the standard order of quad:5 mod 2 is Hamilton's quaternions over
    # F_4: its radical is spanned by 1 + i, 1 + j, 1 + k over F_4, and the
    # quotient by it is the residue field F_4
    O = _algebra("quad:5").standard_order()
    A, rad = _order_radical(O, 2)
    assert len(rad) == 6
    for x in ((1, 0, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0, 1, 0),
              (0, 1, 0, 1, 0, 0, 0, 0)):
        assert in_span_mod(rad, x, 2)
    assert not in_span_mod(rad, A.one, 2)
    quo, _ = quotient_by_ideal(A, rad)
    assert quo.dim == 2


def test_radical_split_quaternion():
    # the algebra splits at every finite place: a maximal order of quad:5
    # has zero radical at the inert 3 and the split 11, and at the
    # ramified 5 = P^2 its radical is PO / 5O, half of O/5O
    O = _maximal("quad:5")
    assert _order_radical(O, 3)[1] == []
    assert _order_radical(O, 11)[1] == []
    assert len(_order_radical(O, 5)[1]) == 4


def _int_mat_pow(m, e):
    result = identity_int(len(m))
    for _ in range(e):
        result = int_product(result, m)
    return result


def ref_radical_rows(A):
    """The divided-trace chain with one divided trace per product v * y."""
    p, n = A.p, A.dim

    def divided_trace(z, i):
        m = [[0] * n for _ in range(n)]
        for r, zr in enumerate(z):
            for s in range(n):
                for t, c in enumerate(A.mult[r][s]):
                    m[t][s] += zr * c
        q = p**i
        quo, rem = divmod(sum(row[t] for t, row in enumerate(_int_mat_pow(m, q))), q)
        assert rem == 0
        return quo % p

    V = [A.unit(j) for j in range(n)]
    i = 0
    while True:
        mat = [[divided_trace(A.mul(v, y), i) for y in V] for v in V]
        new = []
        for coeffs in kernel_mod(tuple(zip(*mat)), p):
            w = [0] * n
            for c, v in zip(coeffs, V):
                w = [(a + c * b) % p for a, b in zip(w, v)]
            new.append(tuple(w))
        V = span_basis_mod(new, p) if new else []
        if not V or p**i >= n:
            return [tuple(r) for r in V]
        i += 1


def test_radical_matches_per_pair_reference(monkeypatch):
    # every radical that the maximal order search of three fields
    # computes, at p = 2 and, over quad:41, at p = 3
    found = []
    radical = quaternion._residue_radical

    def recording(order, A, p):
        found.append((A, radical(order, A, p)))
        return found[-1][1]

    monkeypatch.setattr(quaternion, "_residue_radical", recording)
    for spec in ("quad:5", "quad:13", "quad:41"):
        quaternion.hilbert_ramification_free_algebra(field_from_spec(spec))
    assert len(found) >= 3
    assert {A.p for A, _ in found} == {2, 3}
    for A, rad in found:
        assert rad == ref_radical_rows(A)


def brute_radical(A):
    """{x : x * y is nilpotent for every y} over F_2, by trying every
    pair of elements; vectors are coded as bit masks."""
    n = A.dim
    assert A.p == 2

    def code(v):
        return sum(c << j for j, c in enumerate(v))

    elems = [tuple((m >> j) & 1 for j in range(n)) for m in range(2**n)]
    nilpotent = []
    for x in elems:
        for _ in range(n.bit_length()):
            x = A.mul(x, x)  # x^(2^k) with 2^k >= n
        nilpotent.append(not any(x))
    out = set()
    for m, x in enumerate(elems):
        cols = [code(A.mul(x, A.unit(j))) for j in range(n)]
        # x * y for every y, adding one unit vector to a smaller y
        prods = [0] * 2**n
        for y in range(1, 2**n):
            low = (y & -y).bit_length() - 1
            prods[y] = prods[y & (y - 1)] ^ cols[low]
        if all(nilpotent[z] for z in prods):
            out.add(m)
    return out


@pytest.mark.parametrize("spec", ["quad:5", "quad:10", "quad:85"])
def test_radical_matches_brute_force_on_orders_mod_two(spec):
    # O/2O for the standard order and for the order that the maximal
    # order search passes through: the radical's span is exactly the set
    # of x whose every multiple x * y is nilpotent
    alg = quaternion.hilbert_ramification_free_algebra(field_from_spec(spec))
    start = alg.standard_order()
    for O in (start, quaternion._enlarge_at(start, 2)):
        A, rad = _order_radical(O, 2)
        span = {0}
        for row in rad:
            bits = sum(c << j for j, c in enumerate(row))
            span |= {m ^ bits for m in span}
        assert len(span) == 2 ** len(rad)
        assert 0 < len(rad) < A.dim
        assert span == brute_radical(A)


RADICAL_OPTIMIZED = (
    "from quatforms import quaternion, residue\n"
    "from quatforms.numberfield import field_from_spec\n"
    "O = quaternion.QuatAlgebra(field_from_spec('quad:5'), -1, -1).standard_order()\n"
    "pO = [[2 * c for c in row] for row in O.rows]\n"
    "A = residue.LatticeQuotient(O.rows, O.den, pO, O.den, 2, O.alg.sparse_table()).algebra\n"
)


def test_radical_ideal_check_under_optimize(run_optimized):
    # a multiplication that sends every product to 1 leaves the radical
    # of the standard order mod 2 when it is multiplied by unit vectors;
    # with asserts stripped the two-sided ideal check must raise (the
    # radical is read off the norm forms and is unaffected)
    out = run_optimized(
        RADICAL_OPTIMIZED
        + "residue.FpAlgebra.mul = lambda self, x, y: self.one\n"
        "try:\n"
        "    print('returned', quaternion._residue_radical(O, A, 2))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: radical candidate is not a two-sided ideal")


def test_radical_certificate_checked_under_optimize(run_optimized):
    # kernels that keep every unit vector offer all of O/2O as its
    # radical; with asserts stripped the nilpotency check must still raise
    out = run_optimized(
        RADICAL_OPTIMIZED
        + "quaternion.kernel_mod = lambda rows, p: [\n"
        "    tuple(int(i == j) for j in range(len(rows[0]))) for i in range(len(rows[0]))]\n"
        "try:\n"
        "    print('returned', quaternion._residue_radical(O, A, 2))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: radical candidate is not nilpotent")
