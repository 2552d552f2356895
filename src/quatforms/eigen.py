"""Simultaneous decomposition of the Hecke module into eigencomponents.

The operators are certified to commute, as integer matrices, so the
space splits into generalized eigenspaces one operator at a time.  Every
piece is a primitive integer basis; restricting an operator to it is one
integer product and one elimination.  The generalized eigenspaces of a
restricted operator M are found in integers: M is cleared to d M once,
its powers are taken once, each g^e(M) is an integer combination of
them, and its kernel comes from a fraction-free elimination as integer
rows, lifted to the ambient space by one product.  A piece is final
once a single restricted operator is cyclic with irreducible
characteristic polynomial: the rest of the commuting algebra then lives
inside the field it generates and cannot split the piece further.
Pieces that never certify are returned uncertified; more operators
might still split them.
"""

import itertools
from dataclasses import dataclass
from math import lcm
from operator import mul

from .intmat import identity_int, int_product
from .matrices import (
    Matrix, _echelon, int_poly_at, int_powers, integer_kernel, poly_at_matrix, primitive,
)
from .polynomials import Poly, factor_poly


@dataclass
class Constituent:
    """A Hecke-stable subspace with its restricted operator data.

    basis holds primitive integer rows spanning the subspace in ambient
    orbit coordinates.  For the i-th operator, factors[i] = (g, e) with
    restricted characteristic polynomial g^e and g irreducible; primes[i]
    names the operator.
    presentations[i], once computed, gives the coefficients of the i-th
    restricted operator as a polynomial in the chosen cyclic generator.
    """

    basis: list
    factors: list
    primes: list
    certified: bool
    presentations: list | None = None
    eisenstein: bool = False

    @property
    def dimension(self):
        return len(self.basis)


def _restrict(rows, basis):
    """Matrix of the integer matrix rows on the span of the integer rows
    basis, in basis coordinates.

    One fraction-free elimination of [basis columns | images of the
    basis]: a pivot in the image block means some image leaves the span.
    Dividing each pivot row by its pivot gives the coordinates, so the
    result is integer rows over the lcm of the pivots.
    """
    k = len(basis)
    images = int_product(basis, list(zip(*rows)))
    m, pivots = _echelon([list(row) for row in zip(*basis, *images)])
    if any(pc >= k for pc in pivots):
        raise ArithmeticError("subspace is not stable")
    d = lcm(*(m[r][pc] for r, pc in enumerate(pivots)))
    out = [[0] * k for _ in range(k)]
    for r, pc in enumerate(pivots):
        out[pc] = [v * d // m[r][pc] for v in m[r][k:]]
    return Matrix(out, d)


def _constituent_key(c):
    return (c.dimension, tuple(tuple(g.coeffs) for g, _ in c.factors))


def decompose(blocks):
    """Split the common domain of the blocks into stable subspaces.

    The blocks are first certified to commute pairwise, as integer
    matrices.  Each piece is a primitive integer basis with the factor
    data known so far: a piece cut out by the generalized eigenspace g^e
    of one block has factor (g, e) there and, for every earlier block,
    (h, dim / deg h), h the factor of the piece it came from, since the
    commuting block keeps the subspace.  Only the (piece, block) pairs
    still unknown at the end are restricted and factored.

    Returns Constituents in a deterministic order with complete factor
    data for every block; the sum of their dimensions is the full
    dimension and each restricted characteristic polynomial is a power
    of a single irreducible.
    """
    if not blocks:
        raise ValueError("no Hecke blocks to decompose")
    if any(b.matrix.den != 1 for b in blocks):
        raise ValueError("Hecke matrix is not integral")
    mats = [b.matrix.rows for b in blocks]
    for a, b in itertools.combinations(mats, 2):
        if int_product(a, b) != int_product(b, a):
            raise ArithmeticError("Hecke blocks do not commute")
    n = len(mats[0])
    pieces = [(identity_int(n), [None] * len(mats), False)]
    for i, rows in enumerate(mats):
        nxt = []
        for basis, facs, done in pieces:
            if done:
                nxt.append((basis, facs, done))
                continue
            M = _restrict(rows, basis)
            _, split = factor_poly(M.charpoly())
            if len(split) == 1:
                facs[i] = split[0]
                nxt.append((basis, facs, split[0][1] == 1))
                continue
            powers = int_powers(M.rows, max(g.degree * e for g, e in split))
            for g, e in split:
                dim = g.degree * e
                ker = integer_kernel(int_poly_at(g ** e, M.den, powers)[1])
                if len(ker) != dim:
                    raise ArithmeticError("generalized eigenspace has the wrong dimension")
                if any(dim % h.degree for h, _ in facs[:i]):
                    raise ArithmeticError("eigenspace dimension is not a multiple of a factor degree")
                sub = [(h, dim // h.degree) for h, _ in facs[:i]] + [(g, e)] + facs[i + 1:]
                nxt.append(([primitive(row) for row in int_product(ker, basis)], sub, e == 1))
        pieces = nxt
    out = []
    for basis, facs, _ in pieces:
        for i, rows in enumerate(mats):
            if facs[i] is None:
                _, split = factor_poly(_restrict(rows, basis).charpoly())
                if len(split) != 1:
                    raise ArithmeticError("piece is not isotypic for some operator")
                facs[i] = split[0]
        out.append(Constituent(
            basis=basis,
            factors=facs,
            primes=[b.prime for b in blocks],
            certified=any(e == 1 for _, e in facs),
        ))
    if sum(c.dimension for c in out) != n:
        raise ArithmeticError("constituent dimensions do not add up to the space")
    out.sort(key=_constituent_key)
    return out


def present_eigenvalues(c, blocks):
    """Express every restricted operator in powers of a cyclic generator.

    The generator is the first operator whose restricted characteristic
    polynomial is irreducible of full degree; every presentation is
    checked as an exact matrix identity.  Returns None, leaving only the
    factor data, when no computed operator generates.
    """
    if c.presentations is not None:
        return c.presentations
    gi = None
    for i, (g, e) in enumerate(c.factors):
        if e == 1:
            gi = i
            break
    if gi is None:
        return None
    M = _restrict(blocks[gi].matrix.rows, c.basis)
    n = c.dimension
    # M^k e_0 = A^k e_0 / d^k for M = A / d: the Krylov vectors are the
    # columns of K / d^(n-1), with integer K
    w = [int(t == 0) for t in range(n)]
    cols = []
    cur = w
    for k in range(n):
        cols.append([v * M.den ** (n - 1 - k) for v in cur])
        cur = [sum(map(mul, row, cur)) for row in M.rows]
    K = Matrix(list(zip(*cols)), M.den ** (n - 1))
    pres = []
    for i, block in enumerate(blocks):
        Mi = M if i == gi else _restrict(block.matrix.rows, c.basis)
        coeffs = K.solve_right(Mi.apply(w))
        # the cyclic vector identity extends to the whole piece, checked
        if coeffs is None or poly_at_matrix(Poly(coeffs), M) != Mi:
            raise ArithmeticError("operator is not a polynomial in the generator")
        pres.append(list(coeffs))
    c.presentations = pres
    return pres


def flag_eisenstein(c, F):
    """Whether every a_p of the piece is chi(p) (Np + 1) for characters
    chi of the narrow class group Cl+(F), in any dimension.

    Such an a_p is a root of x^h - (Np + 1)^h, h = h+(F), as chi(p)^h = 1.
    The eigenvalues of a cusp form and all their conjugates lie within
    2 sqrt(Np) < Np + 1 of 0 (Ramanujan, Blasius), so no cuspidal
    eigenvalue is such a root.  The piece is flagged when, at every
    computed prime, its irreducible factor g divides x^h - (Np + 1)^h.
    Hecke operators exist only at primes coprime to the level
    (hecke_operator refuses the others), so every prime counts.
    """
    h = F.narrow_class_number
    return all(
        (Poly([-(pr.norm + 1) ** h] + [0] * (h - 1) + [1]) % g).is_zero()
        for (g, _), pr in zip(c.factors, c.primes)
    )


@dataclass
class EigenReport:
    """Decomposition of one level into constituents with presentations.

    Constituents are ordered Eisenstein first, then by dimension and
    factor data, so reruns and serializations agree byte for byte.
    """

    field: object
    level: object
    primes: list
    constituents: list


def build_report(F, level, weight, blocks):
    """Decompose, present, flag, and order the constituents of a level.

    When uncertified pieces remain the report still carries their factor
    data; extending the operator table is the caller's move.  weight is
    kept only for benchmarks/pipeline.py, which passes it: the blocks are
    in parallel weight 2, the only weight build_space accepts.
    """
    cons = decompose(blocks)
    for c in cons:
        present_eigenvalues(c, blocks)
        c.eisenstein = flag_eisenstein(c, F)
    cons.sort(key=lambda c: (not c.eisenstein,) + _constituent_key(c))
    return EigenReport(
        field=F,
        level=level,
        primes=[b.prime for b in blocks],
        constituents=cons,
    )
