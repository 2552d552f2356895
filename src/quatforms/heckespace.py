"""Level structure and block Hecke operators in parallel weight 2.

The space at level N is assembled class by class: each unit group acts on
P^1(O/N) through a 2x2 splitting of the order at the level primes, and the
operator at a prime p transports orbits along the Brandt witnesses of
the theta table (classset.compute_theta).  At each level prime the
splitting is the neighbor walk's (classset.split_residue_matrix, kept on
the order).  Its reduction map is one F_p-matrix from integer
coordinates over the order to the 2x2 image, so reducing an element is
one integer product with the inverse of the order's basis and one with
that matrix.  Residue fields are log
tables (residue.FiniteField), so matrix entries and projective points
are small ints.  All Hecke matrices have integer entries and everything
is exact.  The dimension report counts orbits by Burnside's lemma, from
the fixed points of each unit image, without listing them, and takes
the narrow class number as its Eisenstein dimension, with no Hecke
operator.
"""

import itertools
import math
from dataclasses import dataclass

from .classset import check_norm_classes, split_residue_matrix
from .intmat import int_product, integral_rows
from .matrices import Matrix
from .numberfield import PrimeIdeal
from .residue import mat2_act, mat2_det, mat2_mul, p1_points


@dataclass(frozen=True)
class WeightSpec:
    """Weight vector, one integer >= 2 per real place, all the same parity."""

    k: tuple

    def __post_init__(self):
        ks = tuple(int(c) for c in self.k)
        object.__setattr__(self, "k", ks)
        if not ks:
            raise ValueError("weight vector is empty")
        if any(c < 2 for c in ks):
            raise ValueError("weight components must be at least 2")
        if len({c % 2 for c in ks}) != 1:
            raise ValueError("weight components must share parity")

    @property
    def is_parallel_two(self):
        return all(c == 2 for c in self.k)


def parallel_weight_two(F):
    return WeightSpec((2,) * F.degree)


# ---------------------------------------------------------------------------
# the projective line over O/N


@dataclass
class P1Space:
    """Points of P^1 over O/N for squarefree N.

    factors holds (prime, residue field) pairs in canonical order; a point
    is a tuple with one normalized (x : y) pair per factor, so the level
    (1) space is the single empty tuple.
    """

    factors: list
    points: list
    index: dict

    @property
    def size(self):
        return len(self.points)


def build_p1(factors):
    """Enumerate P^1(O/N) from the (prime, residue field) pairs of N.

    Certificate: exactly prod (Nq + 1) distinct points.
    """
    per_factor = [p1_points(k) for _, k in factors]
    points = list(itertools.product(*per_factor))
    count = 1
    for _, k in factors:
        count *= k.q + 1
    if not len(points) == count == len(set(points)):
        raise ArithmeticError("P^1 point count differs from prod (Nq + 1)")
    return P1Space(factors, points, {pt: i for i, pt in enumerate(points)})


# ---------------------------------------------------------------------------
# splitting the order at the level primes


class _LevelComponent:
    """Splitting data of the base order at one level prime.

    res is the order's splitting at the prime (split_residue_matrix),
    shared with the neighbor walk; k and lam are its residue field and
    its reduction map as an F_p-matrix.  Reduction accepts any element
    that is integral at the prime: a field multiplier congruent to 1
    there clears denominators supported away from it.  Unit group
    elements and transport witnesses are of this kind, their norms being
    units or neighbor steps at the prime.
    """

    def __init__(self, order, prime):
        self.order = order
        self.prime = prime
        self.res = split_residue_matrix(order, prime)
        self.k = self.res.k
        self.lam = self.res.lam
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
        d = math.lcm(*denoms)
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
        cleared = self._clear([q // math.gcd(q, c) for c in num], x)
        if cleared is not x:
            num, q = self._coords(cleared)
        if any(c % q for c in num):
            raise ValueError("element is not integral at the prime")
        k = self.k
        image = [v % k.p for v in int_product([[c // q for c in num]], self.lam)[0]]
        f = k.f
        a, b, c, d = (k.code(image[t:t + f]) for t in range(0, 4 * f, f))
        return ((a, b), (c, d))

    def fixed_points(self, m):
        """Number of points of P^1(k) that the 2x2 matrix m fixes.

        A scalar fixes all Nq + 1 points.  Any other matrix fixes its
        eigenlines, one per distinct root in k of x^2 - tr x + det, since
        each eigenvalue of a non-scalar matrix has a 1-dimensional
        eigenspace.  The root count is kept per (tr, det).
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

    def reduce_scalar(self, c):
        """Residue field code of a field element integral at the prime: the
        diagonal entry of its image, a scalar matrix."""
        return self.reduce(self.order.alg.el(c))[0][0]


@dataclass
class SplittingMap:
    """Reduction of the order into 2x2 matrices at the level primes.

    The class representatives keep their norms inside the class set
    support, which is coprime to the level, so every left order agrees
    with the base order locally at the level: one map serves all classes
    and the conjugation ambiguity between classes collapses.

    unit_images[a][i] is the image of cs.unit_groups[a].elements[i].
    """

    components: list
    unit_images: list

    def image(self, x):
        return tuple(c.reduce(x) for c in self.components)

    def act(self, mats, pt):
        return tuple(
            mat2_act(c.k, m, xy)
            for c, m, xy in zip(self.components, mats, pt)
        )

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
    sm = SplittingMap([_LevelComponent(R, q) for q in primes], unit_images=[])
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

    orbits[a] lists each orbit of class a as a sorted tuple of point
    indices; the global basis is their concatenation in class order,
    starting at offsets[a].  lookups[a] sends a point index to its orbit
    position within the class.
    """

    level: object
    p1: P1Space
    splitting: SplittingMap
    orbits: list
    stabilizer_orders: list
    offsets: list
    lookups: list
    dim: int


def build_space(cs, N, w, seed=0):
    """Orbit decomposition of P^1(O/N) under every class unit group.

    w and seed are kept only for benchmarks/pipeline.py, which passes
    them: w must be parallel weight 2, and seed is unused, since the
    splitting at the level primes is the same on every run.

    units.elements is the whole unit group modulo base field units, and
    base units act on P^1 as scalars, so trivially.  The orbit of a point
    is therefore exactly its set of images under the stored elements: one
    image per element, no closure.  Certificate, raised as
    ArithmeticError: each orbit contains its start point (the identity is
    among the elements) and no point lies in two orbits; every point not
    yet covered starts an orbit, so the orbits partition P^1.  Each orbit
    size must also divide the unit group order.
    """
    if not w.is_parallel_two:
        raise ValueError("only parallel weight 2 is supported")
    return _orbit_space(cs, N, build_splitting(cs, N))


def _orbit_space(cs, N, sm):
    """build_space at the level N whose primes sm splits."""
    p1 = build_p1([(c.prime, c.k) for c in sm.components])
    orbits = []
    stabs = []
    lookups = []
    offsets = []
    total = 0
    for units, images in zip(cs.unit_groups, sm.unit_images):
        seen = {}
        orbs = []
        for start in range(p1.size):
            if start in seen:
                continue
            pt = p1.points[start]
            orb = tuple(sorted({p1.index[sm.act(mats, pt)] for mats in images}))
            if start not in orb or any(i in seen for i in orb):
                raise ArithmeticError("unit orbits do not partition P^1")
            for i in orb:
                seen[i] = len(orbs)
            orbs.append(orb)
        ostab = []
        for orb in orbs:
            q, r = divmod(units.order, len(orb))
            if r:
                raise ArithmeticError("orbit size does not divide the unit group order")
            ostab.append(q)
        orbits.append(orbs)
        stabs.append(ostab)
        lookups.append(seen)
        offsets.append(total)
        total += len(orbs)
    return CoinvariantSpace(N, p1, sm, orbits, stabs, offsets, lookups, total)


@dataclass
class HeckeBlock:
    """Block matrix of one Hecke operator on the orbit basis.

    The matrix is indexed by the concatenated orbit basis of the space;
    the (a, b) block sits at the offset rectangle of classes a and b.
    """

    prime: PrimeIdeal
    space: CoinvariantSpace
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
    if any(q == p.ideal for q, _ in sp.p1.factors):
        raise ValueError("Hecke prime divides the level")
    pi = th.primes.index(p)
    size = sp.dim
    rows = [[0] * size for _ in range(size)]
    for bi in range(cs.size):
        reps = [orb[0] for orb in sp.orbits[bi]]
        for ai in range(cs.size):
            for u in th.entries.get((pi, ai, bi), ()):
                mats = sp.splitting.image(u)
                for j, ri in enumerate(reps):
                    qt = sp.splitting.act(mats, sp.p1.points[ri])
                    oi = sp.lookups[ai][sp.p1.index[qt]]
                    rows[sp.offsets[ai] + oi][sp.offsets[bi] + j] += 1
    degree = p.norm + 1
    for j in range(size):
        if sum(rows[i][j] for i in range(size)) != degree:
            raise ArithmeticError("column sum differs from the neighbor count")
    return HeckeBlock(p, sp, Matrix(rows))


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
    (_LevelComponent.fixed_points).  The total at M sums these counts over
    the classes; no point of P^1 is listed.  Its Eisenstein part, the
    functions that factor through the reduced norm onto Cl+(F)
    (Dembele-Voight 2013), has dimension h+.  The report depends on
    (cs, N) alone, not on the primes th tabulates.

    Certificates, each raising ArithmeticError: every Burnside sum is
    divisible by |G_a|; the representatives' norms meet all h+ narrow
    classes, so the vectors e_chi, chi(nr I_i) on the orbits of class i,
    are independent; and check_norm_classes holds, which is
    e_chi M_p = chi(p) (Np + 1) e_chi at every level, since a witness
    sends an orbit of b to one of a.
    """
    F = cs.order.alg.base
    eis = F.narrow_class_number
    _check_field(cs, [pr.ideal for pr in th.primes])
    nr_bits = cs.norm_classes()
    if len(set(nr_bits)) != eis:
        raise ArithmeticError("representative norms miss a narrow class")
    check_norm_classes(th, nr_bits, [F.narrow_dlog(pr.ideal) for pr in th.primes])
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
