"""Simultaneous decomposition of the Hecke module into eigencomponents.

The operators commute, so the space splits into generalized eigenspaces
one operator at a time.  A piece is final once a single restricted
operator is cyclic with irreducible characteristic polynomial: the rest
of the commuting algebra then lives inside the field it generates and
cannot split the piece further.  Pieces that never certify are returned
uncertified; more operators might still split them.
"""

import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction

from .matrices import Matrix, poly_at_matrix
from .polynomials import Poly, factor_poly

log = logging.getLogger(__name__)


@dataclass
class Constituent:
    """A Hecke-stable subspace with its restricted operator data.

    basis rows span the subspace in ambient orbit coordinates.  For the
    i-th operator, factors[i] = (g, e) with restricted characteristic
    polynomial g^e and g irreducible; primes[i] names the operator.
    presentations[i], once computed, gives the coefficients of the i-th
    restricted operator as a polynomial in the chosen cyclic generator.
    """

    basis: list
    factors: list
    primes: list
    certified: bool
    generator: int | None = None
    minpoly: Poly | None = None
    presentations: list | None = None
    eisenstein: bool = False

    @property
    def dimension(self):
        return len(self.basis)

    def eigenvalue(self, i):
        """Rational eigenvalue of the i-th operator; dimension 1 only."""
        g, _ = self.factors[i]
        if g.degree != 1:
            raise ValueError("eigenvalue of a factor of degree > 1 is not rational")
        return -g.coeffs[0]


def _restrict(mat, basis):
    """Matrix of mat on the span of basis, in basis coordinates.

    One elimination of [basis columns | images of the basis]: a pivot in
    the image block means some image leaves the span.
    """
    k = len(basis)
    images = [mat.apply(v) for v in basis]
    red, pivots = Matrix([list(row) for row in zip(*basis, *images)]).rref()
    if any(pc >= k for pc in pivots):
        raise ArithmeticError("subspace is not stable")
    out = [[Fraction(0)] * k for _ in range(k)]
    for r, pc in enumerate(pivots):
        out[pc] = red.rows[r][k:]
    return Matrix(out)


def _lift(coord_vecs, basis):
    n = len(basis[0])
    out = []
    for cv in coord_vecs:
        amb = [Fraction(0)] * n
        for c, b in zip(cv, basis):
            if c:
                amb = [x + c * y for x, y in zip(amb, b)]
        out.append(amb)
    return out


def _constituent_key(c):
    return (c.dimension, tuple(tuple(g.coeffs) for g, _ in c.factors))


def decompose(blocks):
    """Split the common domain of the blocks into stable subspaces.

    Returns Constituents in a deterministic order with complete factor
    data for every block; the sum of their dimensions is the full
    dimension and each restricted characteristic polynomial is a power
    of a single irreducible.
    """
    if not blocks:
        raise ValueError("no Hecke blocks to decompose")
    n = blocks[0].matrix.nrows
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    spaces = [(ident, False)]
    for block in blocks:
        nxt = []
        for basis, done in spaces:
            if done:
                nxt.append((basis, done))
                continue
            M = _restrict(block.matrix, basis)
            _, facs = factor_poly(M.charpoly())
            if len(facs) == 1:
                g, e = facs[0]
                nxt.append((basis, e == 1))
                continue
            for g, e in facs:
                ker = poly_at_matrix(g ** e, M).right_kernel()
                if len(ker) != g.degree * e:
                    raise ArithmeticError("generalized eigenspace has the wrong dimension")
                nxt.append((_lift(ker, basis), e == 1))
        spaces = nxt
    out = []
    for basis, _ in spaces:
        factors = []
        for block in blocks:
            M = _restrict(block.matrix, basis)
            _, facs = factor_poly(M.charpoly())
            if len(facs) != 1:
                raise ArithmeticError("piece is not isotypic for some operator")
            factors.append(facs[0])
        out.append(Constituent(
            basis=basis,
            factors=factors,
            primes=[b.prime for b in blocks],
            certified=any(e == 1 for _, e in factors),
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
    c.generator = gi
    c.minpoly = c.factors[gi][0]
    M = _restrict(blocks[gi].matrix, c.basis)
    d = c.dimension
    w = [Fraction(int(t == 0)) for t in range(d)]
    powers = []
    cur = w
    for _ in range(d):
        powers.append(cur)
        cur = M.apply(cur)
    P = Matrix([list(col) for col in zip(*powers)])
    pres = []
    for i, block in enumerate(blocks):
        Mi = M if i == gi else _restrict(block.matrix, c.basis)
        coeffs = P.solve_right(Mi.apply(w))
        # the cyclic vector identity extends to the whole piece, checked
        if coeffs is None or poly_at_matrix(Poly(coeffs), M) != Mi:
            raise ArithmeticError("operator is not a polynomial in the generator")
        pres.append(list(coeffs))
    c.presentations = pres
    return pres


def flag_eisenstein(c, F, level):
    """Dimension 1 with a_p = chi(p) (Np + 1) for a narrow class character.

    Characters are the quadratic ones of the narrow class group, searched
    by sign mask over its generators; the pattern must hold at every
    computed prime coprime to the level.
    """
    if c.dimension != 1:
        return False
    lp = [q for q, _ in level.factor()]
    vals = []
    for i, pr in enumerate(c.primes):
        if any(q == pr.ideal for q in lp):
            continue
        vals.append((pr, c.eigenvalue(i)))
    if not vals:
        return False
    k = len(F.narrow_gens)
    for mask in itertools.product((0, 1), repeat=k):
        ok = True
        for pr, a in vals:
            bits = F.narrow_dlog(pr.ideal)
            sign = -1 if sum(m * b for m, b in zip(mask, bits)) % 2 else 1
            if a != sign * (pr.norm + 1):
                ok = False
                break
        if ok:
            return True
    return False


@dataclass
class EigenReport:
    """Decomposition of one level into constituents with presentations.

    Constituents are ordered Eisenstein first, then by dimension and
    factor data, so reruns and serializations agree byte for byte.
    """

    field: object
    level: object
    weight: object
    primes: list
    constituents: list


def build_report(F, level, weight, blocks):
    """Decompose, present, flag, and order the constituents of a level.

    When uncertified pieces remain the report still carries their factor
    data; extending the operator table is the caller's move.
    """
    cons = decompose(blocks)
    for c in cons:
        present_eigenvalues(c, blocks)
        c.eisenstein = flag_eisenstein(c, F, level)
    cons.sort(key=lambda c: (not c.eisenstein,) + _constituent_key(c))
    return EigenReport(
        field=F,
        level=level,
        weight=weight,
        primes=[b.prime for b in blocks],
        constituents=cons,
    )
