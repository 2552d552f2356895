import itertools
import math
import random
from fractions import Fraction
from math import isqrt

import pytest

from fraction_refs import ref_cholesky
from quatforms.latticetools import (
    _cholesky,
    enumerate_norm,
    fincke_pohst,
    iter_norm,
    lll_gram,
)


def _gram_of(basis):
    n = len(basis)
    return [[sum(basis[i][k] * basis[j][k] for k in range(len(basis[i])))
             for j in range(n)] for i in range(n)]


def _random_basis(rng, n, spread=4):
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        # reject singular choices via a quick rational elimination
        m = [row[:] for row in b]
        ok = True
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                ok = False
                break
            m[c], m[piv] = m[piv], m[c]
            for i in range(c + 1, n):
                f = Fraction(m[i][c], m[c][c])
                m[i] = [a - f * v for a, v in zip(m[i], m[c])]
        if ok:
            return b


def _brute_force(gram, t):
    """All nonzero x with Q(x) <= t, from a provably sufficient box.

    gram is integral, as fincke_pohst takes it, so Q(x) is summed in ints.
    """
    n = len(gram)
    inv_diag = []
    for i in range(n):
        e = [Fraction(int(j == i)) for j in range(n)]
        col = _solve(gram, e)
        inv_diag.append(col[i])
    out = {}
    ranges = []
    for i in range(n):
        b = Fraction(t) * inv_diag[i]
        m = isqrt(b.numerator // b.denominator)
        ranges.append(range(-m, m + 1))
    for x in itertools.product(*ranges):
        if not any(x):
            continue
        q = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if q <= t:
            out[x] = q
    return out


def _solve(mat, rhs):
    n = len(mat)
    aug = [[Fraction(v) for v in mat[i]] + [Fraction(rhs[i])] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def test_lll_orthogonal_untouched():
    g = [[1, 0, 0], [0, 2, 0], [0, 0, 5]]
    g2, u = lll_gram(g)
    assert g2 == [[1, 0, 0], [0, 2, 0], [0, 0, 5]]
    assert u == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_lll_transform_and_determinant():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        basis = _random_basis(rng, n)
        g = _gram_of(basis)
        g2, u = lll_gram(g)
        # g2 = u g u^T exactly
        for i in range(n):
            for j in range(n):
                v = sum(u[i][a] * Fraction(g[a][b]) * u[j][b]
                        for a in range(n) for b in range(n))
                assert v == g2[i][j]
        # unimodular transform
        det = _det_int(u)
        assert det in (1, -1)


def _det_int(m):
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def test_lll_first_vector_bound():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.choice([2, 3])
        g = _gram_of(_random_basis(rng, n))
        g2, _ = lll_gram(g)
        # the first nonempty shell
        shortest = next(t for t in range(1, g2[0][0] + 1) if next(fincke_pohst(g2, t), None))
        assert g2[0][0] <= 2 ** (n - 1) * shortest


def test_fincke_pohst_against_brute_force():
    rng = random.Random(17)
    for _ in range(18):
        n = rng.choice([2, 3, 4])
        g = _gram_of(_random_basis(rng, n, spread=3))
        t = rng.randint(1, 25)
        brute = _brute_force(g, t)
        # the ball Q(x) <= t as the union of the shells 1, ..., t
        got = {x: v for v in range(1, t + 1) for x in fincke_pohst(g, v)}
        # one representative per +- pair, nothing else, values exact
        assert len(brute) == 2 * len(got)
        for x, v in got.items():
            assert brute[x] == v
            neg = tuple(-c for c in x)
            assert brute[neg] == v
            assert neg not in got


def _rational_walk(gram, bound):
    # the Fincke-Pohst walk over Fractions, every center and remainder a
    # rational number; it must yield the same vectors in the same order
    n = len(gram)
    q = [[Fraction(v) for v in row] for row in gram]
    for i in range(n):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for r in range(i + 1, n):
            for c in range(r, n):
                q[r][c] -= q[r][i] * q[i][c]
    x = [0] * n
    bound = Fraction(bound)

    def walk(i, rem, tie):
        if i < 0:
            if not tie:
                yield tuple(x), bound - rem
            return
        c = sum((q[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        start = 0 if tie else math.floor(-c + Fraction(1, 2))
        for step in (1, -1):
            v = start if step == 1 else start - 1
            while q[i][i] * (v + c) ** 2 <= rem:
                x[i] = v
                yield from walk(i - 1, rem - q[i][i] * (v + c) ** 2, tie and v == 0)
                v += step
            if tie:
                break

    yield from walk(n - 1, bound, True)


def test_fincke_pohst_order_matches_rational_walk():
    # callers that stop at the first hit (norm equations) see the vectors
    # in the order of the Fraction ball walk: every shell 1, ..., t is the
    # ball walk of radius t cut down to that value, in the same order
    rng = random.Random(23)
    for _ in range(40):
        g = _random_gram(rng, rng.choice([2, 3, 4, 5]))
        t = rng.randint(1, 60)
        ball = list(_rational_walk(g, t))
        for v in range(1, t + 1):
            assert list(fincke_pohst(g, v)) == [x for x, w in ball if w == v]


def test_shell_walk_matches_filtered_fincke_pohst():
    # the shell walk yields exactly the vectors of value t, in walk order;
    # t is random or, every other time, the value of a random vector, so
    # the shell is not empty
    rng = random.Random(43)
    for trial in range(40):
        n = rng.choice([1, 2, 3, 4, 5])
        g = _random_gram(rng, n)
        if trial % 2:
            x = [rng.randint(-2, 2) for _ in range(n)]
            t = sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) or 1
        else:
            t = rng.randint(1, 60)
        want = [x for x, v in _rational_walk(g, t) if v == t]
        assert list(fincke_pohst(g, t)) == want


def _random_gram(rng, n):
    # an integer Gram, imprimitive two times in five
    g = _gram_of(_random_basis(rng, n, spread=4))
    if rng.random() < 0.4:
        d = rng.randint(2, 6)
        g = [[d * v for v in row] for row in g]
    return g


def test_cholesky_matches_fraction_reference():
    # the integer form from integral Gram-Schmidt is the rational Cholesky
    # form of the Gram, cleared of denominators as the reference clears it
    rng = random.Random(41)
    for _ in range(60):
        g = _random_gram(rng, rng.choice([1, 2, 3, 4, 5, 6]))
        assert _cholesky(g) == ref_cholesky(g)


def test_enumerate_norm_filters_on_forms():
    # the forms are tested on reduced coordinates; the survivors are the
    # shell vectors of the right values, in the coordinates of the input
    rng = random.Random(47)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        gram = _gram_of(_random_basis(rng, n, spread=3))
        form = _gram_of([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        x = [rng.randint(-2, 2) for _ in range(n)]
        t = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) or 1
        shell = enumerate_norm(gram, t, []).vectors
        for v in {sum(y[i] * form[i][j] * y[j] for i in range(n) for j in range(n))
                  for y in shell}:
            got = enumerate_norm(gram, t, [(form, v)]).vectors
            assert got == [y for y in shell
                           if sum(y[i] * form[i][j] * y[j]
                                  for i in range(n) for j in range(n)) == v]


def test_indefinite_forms_rejected():
    for bad in ([[1, 0], [0, -1]], [[0]], [[1, 2], [2, 1]]):
        with pytest.raises(ArithmeticError, match="not positive definite"):
            list(fincke_pohst(bad, 5))
        with pytest.raises(ArithmeticError, match="not positive definite"):
            lll_gram(bad)
    with pytest.raises(ValueError, match="positive"):
        enumerate_norm([[1]], 0, [])
    with pytest.raises(ValueError, match="not square"):
        enumerate_norm([[1, 0]], 1, [])
    # a Fraction Gram, even an integral one, and a Fraction target
    gram = [[2, 1], [1, 2]]
    for bad in ([[Fraction(2), 1], [1, 2]], [[Fraction(1, 2), 0], [0, 1]]):
        with pytest.raises(ValueError, match="integers"):
            lll_gram(bad)
        with pytest.raises(ValueError, match="integers"):
            list(fincke_pohst(bad, 5))
        with pytest.raises(ValueError, match="integers"):
            list(iter_norm(bad, 2, []))
    for t in (Fraction(2), Fraction(5, 2)):
        with pytest.raises(ValueError, match="integer"):
            list(fincke_pohst(gram, t))
        with pytest.raises(ValueError, match="integer"):
            list(iter_norm(gram, t, []))


def test_indefinite_forms_rejected_under_optimize(run_optimized):
    # with asserts stripped an indefinite form must still raise; the walk
    # on [[1, 0], [0, -1]] would otherwise never end
    out = run_optimized(
        "from quatforms.latticetools import fincke_pohst, lll_gram\n"
        "calls = (lambda: list(fincke_pohst([[1, 0], [0, -1]], 5)),\n"
        "         lambda: lll_gram([[-1]]),\n"
        "         lambda: lll_gram([[2, 1, 0], [1, 2, 0], [0, 0, -3]]))\n"
        "for call in calls:\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except ArithmeticError as exc:\n"
        "        print('ArithmeticError:', exc)\n"
    )
    assert out.splitlines() == ["ArithmeticError: form is not positive definite"] * 3


def test_fincke_pohst_empty_below_minimum():
    assert list(fincke_pohst([[2, 0], [0, 2]], 1)) == []


def test_enumerate_norm_axes():
    gram = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert enumerate_norm(gram, 1, []).vectors == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]
    assert enumerate_norm(gram, 7, []).vectors == []


def _ambient(vectors, basis):
    """Coefficient vectors over basis rows as ambient vectors, sign-normalized
    (first nonzero entry positive) and sorted."""
    out = []
    for y in vectors:
        v = [sum(c * b[j] for c, b in zip(y, basis)) for j in range(len(basis[0]))]
        out.append(tuple(-c for c in v) if next(c for c in v if c) < 0 else tuple(v))
    return sorted(out)


def test_enumerate_norm_basis_independent():
    rng = random.Random(31)
    basis = _random_basis(rng, 3)
    # same lattice, second basis mixed by a unimodular transform
    mixed = [basis[0][:], [a + 2 * b for a, b in zip(basis[1], basis[0])], basis[2][:]]
    mixed[2] = [a - b for a, b in zip(mixed[2], mixed[1])]
    for t in (1, 2, 5, 9):
        assert _ambient(enumerate_norm(_gram_of(basis), t, []).vectors, basis) == _ambient(
            enumerate_norm(_gram_of(mixed), t, []).vectors, mixed
        )


def test_lll_reduce_keeps_lattice():
    basis = [[3, 1, 0], [1, 4, 1], [0, 1, 5]]
    gram = _gram_of(basis)
    g2, u = lll_gram(gram)
    # the reduced basis is u * basis, and its Gram is g2
    red_basis = [[sum(u[i][k] * basis[k][j] for k in range(3)) for j in range(3)]
                 for i in range(3)]
    assert g2 == _gram_of(red_basis)
    assert _ambient(enumerate_norm(gram, 9, []).vectors, basis) == _ambient(
        enumerate_norm(g2, 9, []).vectors, red_basis
    )
