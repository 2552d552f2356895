"""Level structure and block Hecke operators in parallel weight 2.

The space at level N is assembled class by class: each unit group acts on
P^1(O/N) through a 2x2 splitting of the order at the level primes, and the
operator at a prime p transports orbits along the Brandt witnesses of
the theta table (classset.compute_theta).  At each level prime the
splitting is the one the neighbor walk keeps on the order
(classset.split_residue_matrix), and it reduces elements itself: one
integer product with the inverse of the order's basis and one with its
reduction map, an F_p-matrix.  Residue fields are log tables
(residue.FiniteField), so matrix entries are small ints, and a point of
P^1(O/N) is an integer index: the mixed-radix number of its indices in
each P^1(O/q) (residue.p1_act), the first level prime most significant.
All Hecke matrices have integer entries and everything is exact.  The
dimension report counts orbits by Burnside's lemma, from the fixed
points of each unit image, without listing them, and takes the narrow
class number as its Eisenstein dimension, with no Hecke operator.
"""

import itertools
import math
from dataclasses import dataclass

from .classset import check_norm_classes, split_residue_matrix
from .matrices import Matrix
from .numberfield import PrimeIdeal
from .residue import mat2_det, mat2_mul, p1_act


def parallel_weight_two(F):
    """The weight vector (2, ..., 2), one entry per real place of F."""
    return (2,) * F.degree


# ---------------------------------------------------------------------------
# splitting the order at the level primes


@dataclass
class SplittingMap:
    """Reduction of the order into 2x2 matrices at the level primes.

    components are the order's kept splittings at the level primes
    (classset.ResidueSplitting), in the order of N.factor().  The class
    representatives keep their norms inside the class set support, which
    is coprime to the level, so every left order agrees with the base
    order locally at the level: one map serves all classes and the
    conjugation ambiguity between classes collapses.

    unit_images[a][i] is the image of cs.unit_groups[a].elements[i].
    """

    components: list
    unit_images: list

    @property
    def size(self):
        """Number of points of P^1(O/N), prod (Nq + 1)."""
        return math.prod(c.k.q + 1 for c in self.components)

    def image(self, x):
        return tuple(c.reduce(x) for c in self.components)

    def act(self, mats, i):
        """Index of the image under mats of the point of P^1(O/N) with
        index i, whose digits, in mixed radix Nq + 1 with the first level
        prime most significant, are its indices at each level prime."""
        out, scale = 0, 1
        for c, m in zip(reversed(self.components), reversed(mats)):
            i, d = divmod(i, c.k.q + 1)
            out += scale * p1_act(c.k, m, d)
            scale *= c.k.q + 1
        return out

    def identity_image(self):
        return tuple(((1, 0), (0, 1)) for _ in self.components)


def _check_field(cs, ideals):
    # ideals of two contexts of one field never compare equal, so a level
    # prime from another context would pass for a Hecke prime
    if any(I.field is not cs.order.alg.base for I in ideals):
        raise ValueError("ideal belongs to another field context than the class set")


def build_splitting(cs, N):
    """Split the order at every level prime and check the resulting maps.

    Checks: the level avoids the support, the identity maps to the
    identity, determinants match reduced norms on every stored unit (the
    norm each unit was solved for, UnitGroup.norms, reduced once per
    distinct norm and level prime), and
    multiplicativity holds on a sample of unit products.  The unit images
    computed for the determinant check are kept in sm.unit_images.  The
    checked map is kept in cs.splittings, so each level is split once
    per class set.
    """
    R = cs.order
    alg = R.alg
    _check_field(cs, [N])
    sm = cs.splittings.get(N)
    if sm is not None:
        return sm
    if N.den != 1:
        raise ValueError("level must be an integral ideal")
    support = {s.ideal for s in cs.support}
    primes = []
    for q, e in N.factor():
        if e != 1:
            raise ValueError("only squarefree levels are supported")
        if q in support:
            raise ValueError("level shares a prime with the class set support")
        primes.append(q)
    sm = SplittingMap([split_residue_matrix(R, q) for q in primes], unit_images=[])
    if sm.image(alg.one) != sm.identity_image():
        raise ArithmeticError("splitting does not fix the identity")
    sample = []
    dets = {}  # residue codes of each unit norm, one per level prime
    for units in cs.unit_groups:
        images = []
        for u, nr in zip(units.elements, units.norms):
            mats = sm.image(u)
            if nr not in dets:
                dets[nr] = [comp.reduce_scalar(nr) for comp in sm.components]
            for comp, m, det in zip(sm.components, mats, dets[nr]):
                if mat2_det(comp.k, m) != det:
                    raise ArithmeticError("splitting determinant mismatch")
            images.append(mats)
            sample.append((u, mats))
        sm.unit_images.append(images)
    for (u, mu), (v, mv) in zip(sample, sample[1:9]):
        mats = sm.image(alg.mul(u, v))
        for comp, m1, m2, m3 in zip(sm.components, mu, mv, mats):
            if mat2_mul(comp.k, m1, m2) != m3:
                raise ArithmeticError("splitting is not multiplicative")
    cs.splittings[N] = sm
    return sm


# ---------------------------------------------------------------------------
# coinvariant spaces and Hecke blocks


@dataclass
class CoinvariantSpace:
    """Orbit bases of the class unit groups acting on P^1(O/N).

    Points are indices (SplittingMap.act).  orbits[a] lists each orbit
    of class a as a sorted tuple of points; the global basis is their
    concatenation in class order, starting at offsets[a].  lookups[a][i]
    is the position of the orbit of point i within class a.
    """

    splitting: SplittingMap
    orbits: list
    offsets: list
    lookups: list
    dim: int


def build_space(cs, N, w, seed=0):
    """Orbit decomposition of P^1(O/N) under every class unit group.

    w and seed are kept only for benchmarks/pipeline.py, which passes
    them: w must be parallel weight 2, and seed is unused, since the
    splitting at the level primes is the same on every run.

    Points are indices (SplittingMap.act), so no point is listed.
    units.elements is the whole unit group modulo base field units, and
    base units act on P^1 as scalars, so trivially.  The orbit of a point
    is therefore exactly its set of images under the stored elements: one
    image per element, no closure.  Certificate, raised as
    ArithmeticError: each orbit contains its start point (the identity is
    among the elements) and no point lies in two orbits; every point not
    yet covered starts an orbit, so the orbits partition P^1.  Each orbit
    size must also divide the unit group order.
    """
    if w != parallel_weight_two(cs.order.alg.base):
        raise ValueError("only parallel weight 2 is supported")
    sm = build_splitting(cs, N)
    size = sm.size
    orbits = []
    lookups = []
    offsets = []
    total = 0
    for units, images in zip(cs.unit_groups, sm.unit_images):
        seen = [None] * size
        orbs = []
        for start in range(size):
            if seen[start] is not None:
                continue
            orb = tuple(sorted({sm.act(mats, start) for mats in images}))
            if start not in orb or any(seen[i] is not None for i in orb):
                raise ArithmeticError("unit orbits do not partition P^1")
            for i in orb:
                seen[i] = len(orbs)
            orbs.append(orb)
        if any(units.order % len(orb) for orb in orbs):
            raise ArithmeticError("orbit size does not divide the unit group order")
        orbits.append(orbs)
        lookups.append(seen)
        offsets.append(total)
        total += len(orbs)
    return CoinvariantSpace(sm, orbits, offsets, lookups, total)


@dataclass
class HeckeBlock:
    """Block matrix of one Hecke operator on the orbit basis.

    The matrix is indexed by the concatenated orbit basis of the space;
    the (a, b) block sits at the offset rectangle of classes a and b.
    """

    prime: PrimeIdeal
    matrix: Matrix


def hecke_operator(cs, th, sp, p):
    """Transport action at p on the orbit basis, as a block matrix.

    Each stored witness u into class a moves a source orbit of class b to
    the orbit of the splitting image of u applied to its representative
    point.  p is one of the PrimeIdeals of th.primes, coprime to the
    level; every column sums to Np + 1 because the witnesses partition
    the Np + 1 neighbors.
    """
    _check_field(cs, [p.ideal] + [pr.ideal for pr in th.primes])
    if p not in th.primes:
        raise ValueError("prime is outside the tabulated walk; extend the bound")
    sm = sp.splitting
    if any(c.prime == p.ideal for c in sm.components):
        raise ValueError("Hecke prime divides the level")
    pi = th.primes.index(p)
    size = sp.dim
    rows = [[0] * size for _ in range(size)]
    for bi in range(cs.size):
        reps = [orb[0] for orb in sp.orbits[bi]]
        for ai in range(cs.size):
            for u in th.entries.get((pi, ai, bi), ()):
                mats = sm.image(u)
                for j, ri in enumerate(reps):
                    oi = sp.lookups[ai][sm.act(mats, ri)]
                    rows[sp.offsets[ai] + oi][sp.offsets[bi] + j] += 1
    degree = p.norm + 1
    for j in range(size):
        if sum(rows[i][j] for i in range(size)) != degree:
            raise ArithmeticError("column sum differs from the neighbor count")
    return HeckeBlock(p, Matrix(rows))


# ---------------------------------------------------------------------------
# dimension bookkeeping


@dataclass
class DimensionReport:
    """Weight 2 dimension split at one level.

    eisenstein is h+ at every level.  The new cuspidal dimension is
    reported two ways: new_strict discounts lower levels once per divisor
    pair (the degeneracy map count), while new_above_one is the plain
    difference against level (1), and at level (1) both are the cusp.
    """

    level: object
    total: int
    eisenstein: int
    cusp: int
    new_strict: int
    new_above_one: int


def dimension_report(cs, th, N):
    """Dimensions (total, Eisenstein, cusp, new) at the squarefree level N.

    The order is split once at the primes of N.  Base field units act as
    scalars, so the unit group G_a of class a, taken modulo them, acts on
    P^1(O/M) = prod_(q | M) P^1(O/q) at each sublevel M | N, and by
    Burnside's lemma its orbit count is sum_g prod_(q | M) fix_q(g) / |G_a|,
    fix_q(g) the fixed points of the image of g at q
    (ResidueSplitting.fixed_points).  The total at M sums these counts over
    the classes; no point of P^1 is listed.  Its Eisenstein part, the
    functions that factor through the reduced norm onto Cl+(F)
    (Dembele-Voight 2013), has dimension h+, one line per character of
    Cl+(F).  The report depends on (cs, N) alone, not on th's primes.

    Certificates, each raising ArithmeticError: every Burnside sum is
    divisible by |G_a|; the norms meet all h+ narrow classes, h+ distinct
    indices, so the vectors e_chi, chi(nr I_i) on the orbits of class i,
    are independent; and check_norm_classes holds, which is
    e_chi M_p = chi(p) (Np + 1) e_chi at every level, since a witness
    sends an orbit of b to one of a.  Both read the narrow classes that
    FieldCtx.narrow_class keeps per ideal.
    """
    eis = cs.order.alg.base.narrow_class_number
    _check_field(cs, [pr.ideal for pr in th.primes])
    if len(set(cs.norm_classes())) != eis:
        raise ArithmeticError("representative norms miss a narrow class")
    check_norm_classes(cs, th)
    sm = build_splitting(cs, N)
    # fixes[a][g][i]: fixed points of unit g of class a at level prime i
    fixes = [
        [[c.fixed_points(m) for c, m in zip(sm.components, mats)] for mats in images]
        for images in sm.unit_images
    ]

    def total(keep):
        """The orbit count at the level of the components indexed by keep."""
        out = 0
        for units, fx in zip(cs.unit_groups, fixes):
            orbits, r = divmod(sum(math.prod(f[i] for i in keep) for f in fx), units.order)
            if r:
                raise ArithmeticError("fixed point sum is not divisible by the unit group order")
            out += orbits
        return out

    # strict new dimensions by recursion over the divisor lattice
    indices = range(len(sm.components))
    subsets = [
        s for r in range(len(indices) + 1) for s in itertools.combinations(indices, r)
    ]
    totals = {s: total(s) for s in subsets}
    strict = {}
    for s in subsets:
        acc = totals[s] - eis
        for r in range(len(s)):
            for sub in itertools.combinations(s, r):
                acc -= 2 ** (len(s) - r) * strict[sub]
        strict[s] = acc
    full = tuple(indices)
    cusp = totals[full] - eis
    if not full:
        return DimensionReport(N, totals[full], eis, cusp, cusp, cusp)
    return DimensionReport(N, totals[full], eis, cusp, strict[full], cusp - strict[()])
