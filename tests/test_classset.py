import functools
import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatforms.classset import (
    _double_coset_orbits,
    _key_vector,
    _norm_one_units,
    _pack_units,
    _span_matrices,
    _unit_bound,
    _unit_keys,
    _unit_matrices,
    _vector_key,
    compute_class_set,
    compute_theta,
    eichler_mass,
    is_isomorphic,
    narrow_support,
    neighbors,
    split_residue_matrix,
    unit_group,
)
from fraction_refs import (
    ref_class_set,
    el_pow,
    lattice_basis,
    ref_compose,
    ref_conjugate,
    ref_coords,
    ref_disc_z,
    ref_inverse,
    ref_iscale,
    ref_lattice,
    ref_lmul,
    ref_pair,
    ref_theta_entries,
    ref_unit_images,
)
from quatforms import numberfield
from quatforms.intmat import integral_preimage_rows, integral_rows
from quatforms.latticetools import enumerate_norm
from quatforms.numberfield import field_from_spec, make_quadratic_field
from quatforms.quaternion import (
    QuatAlgebra,
    QuatLattice,
    hilbert_ramification_free_algebra,
    is_order,
    iter_norm_equation_coords,
    maximalize,
    norm_equation_solutions,
)

F85 = field_from_spec("quad:85")
F10 = field_from_spec("quad:10")
F5 = field_from_spec("quad:5")
F3 = field_from_spec("quad:3")


@functools.cache
def maximal_order(spec):
    F = {"quad:85": F85, "quad:10": F10, "quad:5": F5, "quad:3": F3}.get(spec)
    F = F or field_from_spec(spec)
    alg = hilbert_ramification_free_algebra(F)
    return maximalize(alg.standard_order())


def contains(lat, x):
    """x lies in lat: its coordinates over the basis rows are integers."""
    d, rows = integral_rows([x])
    return lat.int_coords(rows, d) is not None


@functools.cache
def class_set(spec):
    R = maximal_order(spec)
    return compute_class_set(R, narrow_support(R.alg.base))


def test_eichler_mass_values():
    assert eichler_mass(F85) == 3
    assert eichler_mass(F10) == Fraction(7, 6)
    assert eichler_mass(F5) == Fraction(1, 60)


def test_eichler_mass_needs_field_data():
    import types

    stub = types.SimpleNamespace(zeta_minus_one=None, class_number=1, degree=2)
    with pytest.raises(ValueError):
        eichler_mass(stub)


def test_narrow_support_choices():
    assert narrow_support(F5) == []
    (p85,) = narrow_support(F85)
    # the smaller norm 3 prime in canonical order; its residue sends the
    # integral generator to 1, so it contains omega - 1
    assert p85.norm == 3 and p85.ideal.contains(F85.el((-1, 1)))
    (p10,) = narrow_support(F10)
    assert p10.norm == 2 and p10.e == 2
    for F in (F85, F10):
        assert all(F.narrow_class(p.ideal) != 0 for p in narrow_support(F))


def test_prime_lists_and_narrow_support_pinned():
    # primes_by_norm factors one rational prime at a time; the lists it
    # gives are those of factoring every p up to the bound and sorting
    supports = {
        2: [], 3: [(2, ((1, 1), (0, 2)))], 5: [], 6: [(2, ((2, 0), (0, 1)))],
        7: [(3, ((1, 1), (0, 3)))], 10: [(2, ((2, 0), (0, 1)))], 13: [],
        15: [(2, ((1, 1), (0, 2))), (3, ((3, 0), (0, 1)))], 17: [],
        21: [(3, ((1, 1), (0, 3)))], 30: [(2, ((2, 0), (0, 1))), (5, ((5, 0), (0, 1)))],
        41: [], 85: [(3, ((1, 2), (0, 3)))],
    }
    primes = []
    for d, want in supports.items():
        F = make_quadratic_field(d)
        assert [(p.norm, p.ideal.rows) for p in narrow_support(F)] == want
        primes.append([(p.norm, p.ideal.rows, p.f, p.e) for p in F.prime_ideals_up_to(300)])
    assert [len(x) for x in primes] == [61, 59, 62, 60, 62, 61, 63, 64, 61, 59, 58, 58, 65]
    digest = hashlib.sha256(repr(primes).encode()).hexdigest()
    assert digest == "e258f7c3601054781d4e9317f117a23119e6132b8139a1c8c2d19ec47d1d91b7"


def test_narrow_support_raises_past_norm_200(monkeypatch):
    F = make_quadratic_field(85)
    monkeypatch.setattr(F, "narrow_class", lambda ideal: 0)
    with pytest.raises(ArithmeticError, match="do not generate"):
        narrow_support(F)


def test_neighbor_counts_and_norms():
    R = maximal_order("quad:85")
    for pr in F85.prime_ideals_up_to(5):
        out = neighbors(R, pr)
        assert len(out) == pr.norm + 1
        assert len(set(out)) == len(out)
        for c in out:
            assert c.contains_lattice(R)
            assert c.nr_ideal() * pr.ideal == R.nr_ideal()
            assert R.covolume() / c.covolume() == pr.norm ** 2


def test_neighbors_at_ramified_norm_two_prime():
    # residue characteristic 2 with e = 2; the module quotient still has
    # exactly Np + 1 = 3 simple submodules
    R = maximal_order("quad:10")
    (p2,) = [p for p in F10.prime_ideals_up_to(2) if p.norm == 2]
    assert p2.e == 2
    out = neighbors(R, p2)
    assert len(out) == 3
    for c in out:
        assert c.nr_ideal() * p2.ideal == R.nr_ideal()


def test_prime_inputs_must_be_prime_ideals():
    # (3) splits on quad:10 and (2) is the square of the ramified prime
    # above 2: both have prime power norm, and neither is a prime
    R = maximal_order("quad:10")
    for ideal in (F10.ideal(3), F10.ideal(2)):
        with pytest.raises(ValueError, match="not a prime ideal"):
            neighbors(R, ideal)
        with pytest.raises(ValueError, match="not a prime ideal"):
            split_residue_matrix(R, ideal)
    (p2,) = [p for p in F10.prime_ideals_up_to(2) if p.norm == 2]
    assert neighbors(R, p2.ideal) == neighbors(R, p2)


def test_neighbor_symmetry():
    # walking away from b and back: b rescaled by p^-1 is a neighbor of
    # every neighbor of b
    R = maximal_order("quad:10")
    (p2,) = [p for p in F10.prime_ideals_up_to(2) if p.norm == 2]
    scaled = R.iscale(p2.ideal.inverse())
    for c in neighbors(R, p2):
        assert any(d == scaled for d in neighbors(c, p2))


def test_is_isomorphic_identity_and_constructed_witness():
    R = maximal_order("quad:85")
    alg = R.alg
    assert is_isomorphic(R, R) == alg.one
    u = alg.el(1, 1, 1, 0)  # reduced norm 3
    a = R.lmul_element(u)
    w = is_isomorphic(R, a)
    assert w is not None and a.lmul_element(w) == R
    w = is_isomorphic(a, R)
    assert w is not None and R.lmul_element(w) == a


def test_is_isomorphic_narrow_class_obstruction():
    # neighbors at a prime whose narrow class is nontrivial can never be
    # isomorphic to the order itself
    R = maximal_order("quad:85")
    (pr,) = narrow_support(F85)
    assert F85.narrow_class(pr.ideal) != 0
    for c in neighbors(R, pr):
        assert is_isomorphic(R, c) is None


def test_is_isomorphic_rejects_mismatched_orders():
    R = maximal_order("quad:85")
    alg = R.alg
    x = alg.el(1, 1, 1, 0)
    xR = R.lmul_element(x)  # right order R
    Rx = ref_lattice(alg, [alg.mul(v, x) for v in lattice_basis(R)])
    # right order of R * x is x^-1 R x, which differs from R for this x
    assert Rx.right_order() != xR.right_order()
    with pytest.raises(ValueError, match="share a right order"):
        is_isomorphic(xR, Rx)


def test_unit_group_orders():
    assert unit_group(maximal_order("quad:5")).order == 60
    assert unit_group(maximal_order("quad:10")).order == 12
    assert unit_group(maximal_order("quad:85")).order == 12


def test_unit_group_contains_identity_and_is_closed():
    # elements are one per coset of the base units: z and g share a coset
    # exactly when z * g^-1 is central, i.e. has no i, j, k part
    O = maximal_order("quad:10")
    alg = O.alg
    n = alg.base.degree
    G = unit_group(O)
    assert alg.one in G.elements
    for x in G.elements:
        assert contains(O, x)
        for y in G.elements:
            z = alg.mul(x, y)
            assert sum(not any(alg.mul(z, alg.inv(g))[n:]) for g in G.elements) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_unit_scaling_equivalence(seed):
    # theta witnesses count neighbors u^-1 * a, which a base unit scaling
    # of u leaves alone: c * x generates the same right ideal x * R
    rng = random.Random(seed)
    R = maximal_order("quad:10")
    alg = R.alg
    F = alg.base
    x = tuple(Fraction(rng.randint(-9, 9)) for _ in range(alg.dim))
    if not any(x):
        x = alg.one
    eps = F.fundamental_units[0]
    c = el_pow(F, eps, rng.randint(0, 2))
    if rng.random() < 0.5:
        c = F.inv(c)
    if rng.random() < 0.5:
        c = F.neg(c)
    xR = R.lmul_element(x)
    assert R.lmul_element(alg.fmul(c, x)) == xR
    assert R.lmul_element(alg.fmul(F.from_int(3), x)) != xR


def test_unit_group_keeps_the_norms_it_solved_for():
    for spec in ("quad:5", "quad:10", "quad:85"):
        for G in class_set(spec).unit_groups:
            alg = class_set(spec).order.alg
            assert len(G.norms) == G.order
            assert [alg.base.el(alg.nr(g)) for g in G.elements] == G.norms


def test_theta_searches_generators_only_for_trivial_classes(monkeypatch):
    # narrow classes decide which cells can be nonempty; every generator
    # search outside narrow_class finds one.  Half the cells are narrowly
    # trivial, and the two that come after their column already holds
    # Np + 1 neighbors are not searched.  The walk searches the cells of
    # the support columns it closes, and theta takes those columns as they
    # are and searches the others
    R = maximal_order("quad:10")
    F = R.alg.base
    search, lookup = F.narrowly_principal_generator, F.narrow_class
    depth = []
    found = []

    def counted_lookup(ideal):
        depth.append(ideal)
        try:
            return lookup(ideal)
        finally:
            depth.pop()

    def counted_search(ideal):
        g = search(ideal)
        if not depth:
            found.append(g)
        return g

    monkeypatch.setattr(F, "narrow_class", counted_lookup)
    monkeypatch.setattr(F, "narrowly_principal_generator", counted_search)
    cs = compute_class_set(R, narrow_support(F))
    walked = len(found)
    th = compute_theta(cs, 12)
    cells = cs.size ** 2 * len(th.primes)
    assert cells // 2 == 32
    assert (walked, len(found)) == (5, 30)
    assert None not in found


def test_narrow_class_tests_each_ideal_once(monkeypatch):
    # the walk, theta and its norm class check ask FieldCtx.narrow_class
    # for the classes of nr(a), p and nr(b) cell by cell, and search
    # generators and totally positive generators; each distinct ideal is
    # walked once for all of them
    F = make_quadratic_field(10)
    R = maximalize(hilbert_ramification_free_algebra(F).standard_order())
    walked = Counter()
    walk = numberfield.FieldCtx._cycle_walk

    def counting(self, a):
        walked[a.rows, a.den] += 1
        return walk(self, a)

    monkeypatch.setattr(numberfield.FieldCtx, "_cycle_walk", counting)
    cs = compute_class_set(R, narrow_support(F))
    th = compute_theta(cs, 12)
    assert len(th.primes) == cs.size == 4
    assert walked and max(walked.values()) == 1


def test_continued_fraction_steps_pinned(monkeypatch):
    # continued fraction steps are a work count no host changes: over the
    # field, class set and theta of quad:10 and quad:85 at bound 12, and
    # over the field of quad:1021.  The cycles of Cl(F) give the unit,
    # and a principal ideal's walk stops at its generator
    walk = numberfield._continued_fraction
    steps = []

    def counted(D, P, Q):
        for step in walk(D, P, Q):
            steps.append(step)
            yield step

    monkeypatch.setattr(numberfield, "_continued_fraction", counted)
    counts = []
    for spec in ("quad:10", "quad:85"):
        steps.clear()
        F = field_from_spec(spec)
        R = maximalize(hilbert_ramification_free_algebra(F).standard_order())
        compute_theta(compute_class_set(R, narrow_support(F)), 12)
        counts.append(len(steps))
    steps.clear()
    make_quadratic_field(1021)
    assert counts + [len(steps)] == [63, 109, 22]


def test_theta_trivial_class_search_checked_under_optimize(run_optimized):
    # lookups that call every class trivial send compute_theta to search
    # generators that do not exist; with asserts stripped it must raise
    out = run_optimized(
        "from quatforms import classset\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
        "F = field_from_spec('quad:10')\n"
        "R = maximalize(hilbert_ramification_free_algebra(F).standard_order())\n"
        "cs = classset.compute_class_set(R, classset.narrow_support(F))\n"
        "F.narrow_class = lambda ideal: 0\n"
        "try:\n"
        "    print('returned', classset.compute_theta(cs, 5))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: narrowly trivial ideal has no totally positive generator")


def test_class_set_quad5():
    cs = class_set("quad:5")
    assert cs.size == 1
    assert cs.support == []
    assert cs.mass == Fraction(1, 60)
    assert cs.unit_groups[0].order == 60
    assert cs.representatives[0] == cs.order


def test_class_set_quad34_cyclic_narrow_class_group():
    # Cl+ of Q(sqrt 34) is cyclic of order 4; its one support prime
    # generates it, and the walk reaches all 20 classes, certified by the
    # mass zeta(-1) h / 2 = 23/3, with five representatives' norms in
    # each narrow class
    F = field_from_spec("quad:34")
    (p,) = narrow_support(F)
    c = F.narrow_class(p.ideal)
    assert p.norm == 3 and F.narrow_mul[c][c] != 0  # c has order 4
    cs = class_set("quad:34")
    assert cs.size == 20
    assert cs.mass == eichler_mass(F) == Fraction(23, 3)
    assert sorted(Counter(cs.norm_classes()).values()) == [5, 5, 5, 5]


def test_class_set_quad94_large_unit():
    # eps = 2143295 + 221064 sqrt 94 is large, but principality takes
    # steps in log eps, so the field and its 29 classes build at once,
    # certified by the mass zeta(-1) h / 2 = 53/3
    cs = class_set("quad:94")
    F = cs.order.alg.base
    assert (F.class_number, F.narrow_class_number) == (1, 2)
    assert cs.size == 29
    assert cs.mass == eichler_mass(F) == Fraction(53, 3)


# (h, h+, classes, mass) of the maximal order of every squarefree d <= 105;
# the class sets of more than 16 classes are marked slow
CLASS_SETS_TO_105 = {
    2: (1, 1, 1, Fraction(1, 24)), 3: (1, 2, 2, Fraction(1, 12)), 5: (1, 1, 1, Fraction(1, 60)),
    6: (1, 2, 3, Fraction(1, 4)), 7: (1, 2, 3, Fraction(1, 3)), 10: (2, 2, 4, Fraction(7, 6)),
    11: (1, 2, 4, Fraction(7, 12)), 13: (1, 1, 1, Fraction(1, 12)), 14: (1, 2, 5, Fraction(5, 6)),
    15: (2, 4, 8, Fraction(2)), 17: (1, 1, 1, Fraction(1, 6)), 19: (1, 2, 6, Fraction(19, 12)),
    21: (1, 2, 2, Fraction(1, 6)), 22: (1, 2, 7, Fraction(23, 12)), 23: (1, 2, 7, Fraction(5, 3)),
    26: (2, 2, 10, Fraction(25, 6)), 29: (1, 1, 2, Fraction(1, 4)), 30: (2, 4, 18, Fraction(17, 3)),
    31: (1, 2, 9, Fraction(10, 3)), 33: (1, 2, 3, Fraction(1, 2)), 34: (2, 4, 20, Fraction(23, 3)),
    35: (2, 4, 18, Fraction(19, 3)), 37: (1, 1, 2, Fraction(5, 12)), 38: (1, 2, 11, Fraction(41, 12)),
    39: (2, 4, 20, Fraction(26, 3)), 41: (1, 1, 2, Fraction(2, 3)), 42: (2, 4, 20, Fraction(9)),
    43: (1, 2, 12, Fraction(21, 4)), 46: (1, 2, 13, Fraction(37, 6)), 47: (1, 2, 13, Fraction(14, 3)),
    51: (2, 4, 28, Fraction(13)), 53: (1, 1, 3, Fraction(7, 12)), 55: (2, 4, 32, Fraction(46, 3)),
    57: (1, 2, 4, Fraction(7, 6)), 58: (2, 2, 22, Fraction(33, 2)), 59: (1, 2, 16, Fraction(85, 12)),
    61: (1, 1, 3, Fraction(11, 12)), 62: (1, 2, 17, Fraction(7)), 65: (2, 2, 6, Fraction(8, 3)),
    66: (2, 4, 38, Fraction(56, 3)), 67: (1, 2, 18, Fraction(41, 4)), 69: (1, 2, 5, Fraction(1)),
    70: (2, 4, 40, Fraction(67, 3)), 71: (1, 2, 19, Fraction(29, 3)), 73: (1, 1, 3, Fraction(11, 6)),
    74: (2, 2, 32, Fraction(41, 2)), 77: (1, 2, 5, Fraction(1)), 78: (2, 4, 44, Fraction(23)),
    79: (3, 6, 69, Fraction(42)), 82: (4, 4, 68, Fraction(54)), 83: (1, 2, 22, Fraction(43, 4)),
    85: (2, 2, 8, Fraction(3)), 86: (1, 2, 23, Fraction(155, 12)), 87: (2, 4, 40, Fraction(26)),
    89: (1, 1, 4, Fraction(13, 6)), 91: (2, 4, 54, Fraction(103, 3)), 93: (1, 2, 6, Fraction(3, 2)),
    94: (1, 2, 29, Fraction(53, 3)), 95: (2, 4, 52, Fraction(86, 3)), 97: (1, 1, 4, Fraction(17, 6)),
    101: (1, 1, 5, Fraction(19, 12)), 102: (2, 4, 56, Fraction(103, 3)), 103: (1, 2, 31, Fraction(19)),
    105: (2, 4, 14, Fraction(6)),
}


@pytest.mark.parametrize("d", [
    pytest.param(d, marks=pytest.mark.slow) if row[2] > 16 else d
    for d, row in CLASS_SETS_TO_105.items()
])
def test_class_set_table_to_105(d):
    F = field_from_spec(f"quad:{d}")
    R = maximalize(hilbert_ramification_free_algebra(F).standard_order())
    cs = compute_class_set(R, narrow_support(F))
    assert (F.class_number, F.narrow_class_number, cs.size, cs.mass) == CLASS_SETS_TO_105[d]
    assert cs.mass == eichler_mass(F)
    # the packed units on the pairs the walk built, and on the order itself,
    # give the images of the list reference
    br = cs.brandt
    rng = random.Random(d)
    pairs = sorted(br.pairs)
    for ai, bi in [(0, 0)] + rng.sample(pairs, min(6, len(pairs))):
        L = br.pairs[ai, bi][0] if (ai, bi) in br.pairs else R
        ca, cb = br.classes[ai], br.classes[bi]
        x = tuple(rng.randint(-2 ** 20, 2 ** 20) for _ in range(8))
        for units, cu, lams in zip(_unit_matrices(L, ca, cb), (ca, cb), (ca.lefts, cb.rights)):
            want = ref_unit_images(x, _span_matrices(L, lams), cu.coeffs)
            assert [_key_vector(k, units) for k in _unit_keys(x, units)] == [
                sign_normal(y) for y in want]


def test_class_set_walks_a_split_prime_at_narrow_class_number_one():
    # the unit 32 + 5 sqrt 41 has norm -1, so h+ = h = 1 and the narrow
    # support is empty, yet the mass 2/3 needs a second class; the walk
    # then runs at the smallest split prime, which the support records
    F41 = field_from_spec("quad:41")
    assert narrow_support(F41) == []
    R = maximalize(hilbert_ramification_free_algebra(F41).standard_order())
    cs = compute_class_set(R, [])
    assert cs.mass == eichler_mass(F41) == Fraction(2, 3)
    assert [u.order for u in cs.unit_groups] == [6, 2]
    (p,) = cs.support
    assert (p.norm, p.e, p.f) == (2, 1, 1)
    assert cs.representatives[1].nr_ideal() * p.ideal == R.nr_ideal()
    th = compute_theta(cs, 5)
    assert len(th.entries) == 14


def test_class_set_quad10():
    cs = class_set("quad:10")
    assert cs.size == 4
    assert cs.mass == Fraction(7, 6)
    assert [g.order for g in cs.unit_groups] == [12, 4, 2, 3]
    assert sum(Fraction(1, g.order) for g in cs.unit_groups) == eichler_mass(F10)


def test_class_set_quad85():
    cs = class_set("quad:85")
    assert cs.size == 8
    assert cs.mass == 3
    assert [g.order for g in cs.unit_groups] == [12, 3, 1, 12, 3, 2, 3, 3]
    assert sum(Fraction(1, g.order) for g in cs.unit_groups) == 3


def test_class_set_invariants():
    for spec in ("quad:10", "quad:85"):
        cs = class_set(spec)
        R = cs.order
        support = {p.ideal for p in cs.support}
        for i, rep in enumerate(cs.representatives):
            assert rep.right_order() == R
            assert cs.left_orders[i] == rep.left_order()
            assert is_order(cs.left_orders[i])
            for q, _ in rep.nr_ideal().factor():
                assert q in support


def test_inverse_presets_orders_known_by_construction():
    # O_l(b^-1) = O_r(b) and O_r(b^-1) = O_l(b), so compose need not
    # recompute the left order of b^-1
    for spec in ("quad:10", "quad:85"):
        for b in class_set(spec).representatives:
            left, right = b.left_order(), b.right_order()
            inv = b.inverse()
            assert inv._left is right and inv._right is left
            fresh = QuatLattice(inv.alg, inv.rows, inv.den)
            assert fresh._stabilizer(left=True) == right
            assert fresh._stabilizer(left=False) == left


def test_inverse_built_once_per_lattice(monkeypatch):
    # the walk builds its quotients a * b^-1 as colons, so a fresh quad:85
    # walk inverts no lattice, and it gives the pinned representatives and
    # unit groups.  An inverse, once built, is kept on the lattice
    R = maximalize(hilbert_ramification_free_algebra(F85).standard_order())
    built = []
    conjugate = QuatLattice.conjugate

    def recording(self):
        built.append(self)
        return conjugate(self)

    monkeypatch.setattr(QuatLattice, "conjugate", recording)
    cs = compute_class_set(R, narrow_support(F85))
    monkeypatch.undo()
    assert built == []
    for lat in cs.representatives:
        assert lat.inverse() is lat.inverse()
    reps = repr([(r.rows, r.den) for r in cs.representatives])
    units = repr([g.elements for g in cs.unit_groups])
    assert hashlib.sha256(reps.encode()).hexdigest() == (
        "e60179cc4ca28e5f2e779c9696af9bd3222e9cfaba05edbee75f2bd0b5a20b56"
    )
    assert hashlib.sha256(units.encode()).hexdigest() == (
        "a5c881303af86f580374c200651a11a30ae85b6d29e4b756c348f82b6f2dc2a4"
    )


def ref_stabilizer(lat, left):
    """O_l(lat) or O_r(lat) by Fraction products e_r * b and solves."""
    alg = lat.alg
    N = alg.dim
    mat = []
    for r in range(N):
        u = tuple(Fraction(int(t == r)) for t in range(N))
        row = []
        for b in lattice_basis(lat):
            row.extend(ref_coords(lat, alg.mul(u, b) if left else alg.mul(b, u)))
        mat.append(row)
    den, ints = integral_rows(mat)
    return QuatLattice(alg, *integral_preimage_rows(ints, den))


@pytest.mark.parametrize("spec,bound,new_classes", [("quad:10", 12, 3), ("quad:85", 5, 7)])
def test_orders_known_by_construction(spec, bound, new_classes, monkeypatch):
    # neighbors carry their right order, the walk takes the left order of
    # each new representative as a colon by its generators, and every
    # Brandt pair lattice, a colon too, carries the left orders of its
    # classes; so neither the walk nor compute_theta stabilizes a lattice,
    # and every preset order is the one _stabilizer finds on a fresh copy
    import quatforms.classset as classset

    walk, colon = classset.neighbors, QuatLattice.colon
    stabilizer = QuatLattice._stabilizer
    neighbor_lats, colons, calls = [], [], []

    def recorded_neighbors(b, p):
        out = walk(b, p)
        neighbor_lats.extend(out)
        return out

    def recorded_colon(self, gens, den, left):
        out = colon(self, gens, den, left)
        colons.append(out)
        return out

    def counted(self, left):
        calls.append(left)
        return stabilizer(self, left)

    monkeypatch.setattr(classset, "neighbors", recorded_neighbors)
    monkeypatch.setattr(QuatLattice, "colon", recorded_colon)
    monkeypatch.setattr(QuatLattice, "_stabilizer", counted)
    R = maximal_order(spec)
    cs = compute_class_set(R, narrow_support(R.alg.base))
    walked = len(colons)
    assert new_classes == cs.size - 1
    compute_theta(cs, bound)
    assert calls == []
    pairs = [L for L, _, _ in cs.brandt.pairs.values()]
    # one colon per left order of a new class, and one per pair of classes
    assert len(colons) == cs.size - 1 + len(pairs)
    assert neighbor_lats and 0 < walked < len(colons)
    assert all(any(L is c for c in colons) for L in pairs)
    assert all(any(O is c for c in colons) for O in cs.left_orders[1:])

    def known(lat, left):
        want = stabilizer(QuatLattice(lat.alg, lat.rows, lat.den), left)
        return (lat._left if left else lat._right) == want

    assert all(known(c, False) for c in neighbor_lats)
    assert all(known(c, True) for c in cs.representatives)
    assert all(known(L, True) and known(L, False) for L in pairs)


def test_compose_certificate_checked_under_optimize(run_optimized):
    # left matrices doubled make every block of the product twice too
    # large, so no span of them reaches the product index; with asserts
    # stripped the index certificate must catch it
    out = run_optimized(
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import QuatAlgebra, hilbert_ramification_free_algebra, maximalize\n"
        "R = maximalize(hilbert_ramification_free_algebra(field_from_spec('quad:5')).standard_order())\n"
        "left = QuatAlgebra.left_matrix\n"
        "def doubled(self, x):\n"
        "    m, d = left(self, x)\n"
        "    return [[2 * c for c in row] for row in m], d\n"
        "QuatAlgebra.left_matrix = doubled\n"
        "try:\n"
        "    print('returned', R.compose(R))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: ideal product does not have the product index")


def test_compose_containment_checked_under_optimize(run_optimized):
    # R * R on quad:85 takes two blocks; a covolume that reads the target
    # after the first one stops the product a block short, and with
    # asserts stripped the containment of the remaining products must
    # catch it
    out = run_optimized(
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import QuatLattice, hilbert_ramification_free_algebra, maximalize\n"
        "R = maximalize(hilbert_ramification_free_algebra(field_from_spec('quad:85')).standard_order())\n"
        "QuatLattice.covolume = lambda self: 1\n"
        "try:\n"
        "    print('returned', R.compose(R))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: ideal product misses a product of the factors' rows")


@pytest.mark.parametrize("spec", ["quad:10", "quad:15", "quad:85"])
def test_compose_matches_full_product(spec):
    # the product that stops at its index against the span of all 64
    # products of basis rows, on every ordered pair of classes
    cs = class_set(spec)
    for a in cs.representatives:
        for b in cs.representatives:
            assert a.compose(b.inverse()) == ref_compose(a, b.inverse())


@pytest.mark.parametrize("spec", ["quad:10", "quad:85", pytest.param("quad:34", marks=pytest.mark.slow)])
def test_colon_matches_fraction_product(spec):
    # the Brandt pair lattice, the left colon (a : b) by the generators of
    # b, is the span of the products of a with the Fraction inverse of b,
    # on every ordered pair of classes; a pair of basis rows generates
    # every representative, and the colon by all the basis rows, the
    # fallback of _right_generators, gives the same lattice
    cs = class_set(spec)
    reps = cs.representatives
    gens = [cu.gens for cu in cs.brandt.classes]
    assert [len(g) for g in gens] == [2] * cs.size
    for bi, b in enumerate(reps):
        inv = ref_inverse(b)
        for ai, a in enumerate(reps):
            L = a.colon(gens[bi], b.den, left=True)
            assert L == ref_compose(a, inv) == a.colon(b.rows, b.den, left=True)
            if (ai, bi) in cs.brandt.pairs:
                assert cs.brandt.pairs[ai, bi][0] == L


def test_right_generators_fall_back_to_every_basis_row(monkeypatch):
    # with no pair to try, the generators are all the basis rows, and the
    # left order is still their colon
    import quatforms.classset as classset

    cs = class_set("quad:85")
    monkeypatch.setattr(classset, "combinations", lambda rows, r: iter(()))
    for b, left in zip(cs.representatives, cs.left_orders):
        gens = classset._right_generators(b, cs.order)
        assert gens == list(b.rows)
        assert b.colon(gens, b.den, left=True) == left


def test_stabilizer_matches_fraction_reference():
    for spec in ("quad:10", "quad:85"):
        cs = class_set(spec)
        for b in [cs.order, *cs.representatives]:
            for lat in (b, b.inverse()):
                for left in (True, False):
                    assert lat._stabilizer(left) == ref_stabilizer(lat, left)


@pytest.mark.parametrize("spec", ["quad:5", "quad:10", "quad:85"])
def test_integer_builders_match_fraction_references(spec):
    # every lattice builder runs on integer rows; for every class and its
    # neighbors at every prime of norm <= 12, each builder gives the span
    # of the Fraction products it replaced
    cs = class_set(spec)
    alg = cs.order.alg
    x = alg.el(1, 1, 1, 0)
    for b in cs.representatives:
        assert b.disc_z() == ref_disc_z(b)
        assert b.lmul_element(x) == ref_lmul(b, x)
        for pr in alg.base.prime_ideals_up_to(12):
            for ideal in (pr.ideal, pr.ideal.inverse()):
                assert b.iscale(ideal) == ref_iscale(b, ideal)
            for c in [b, *neighbors(b, pr)]:
                assert c.conjugate() == ref_conjugate(c)
                assert c.inverse() == ref_inverse(c)


def test_theta_recomputes_no_order(monkeypatch):
    # a maximal order is its own left and right order, so composing
    # a * b^-1 inside compute_theta stabilizes no lattice
    R = maximalize(hilbert_ramification_free_algebra(F5).standard_order())
    cs = compute_class_set(R, narrow_support(F5))
    calls = []
    stabilizer = QuatLattice._stabilizer

    def counted(self, left):
        calls.append(left)
        return stabilizer(self, left)

    monkeypatch.setattr(QuatLattice, "_stabilizer", counted)
    th = compute_theta(cs, 11)
    assert calls == []
    assert sum(len(us) for us in th.entries.values()) == 45


def test_class_set_representatives_pairwise_distinct():
    cs = class_set("quad:85")
    n = cs.size
    for i in range(n):
        for j in range(i + 1, n):
            assert is_isomorphic(cs.representatives[i], cs.representatives[j]) is None


@pytest.mark.parametrize("spec", ["quad:10", "quad:15", "quad:41", "quad:85"])
def test_class_set_matches_isomorphism_walk(spec):
    # the closure of the Brandt columns against the walk that classifies
    # every neighbor by isomorphism tests: the same representatives, left
    # orders and unit groups.  On every support column the witnesses u
    # into the classes a give the neighbors u^-1 a of b at p, each once,
    # and no other lattice (Fraction products)
    cs = class_set(spec)
    reps, lefts, units = ref_class_set(cs.order)
    assert [(r.rows, r.den) for r in cs.representatives] == [(r.rows, r.den) for r in reps]
    assert cs.left_orders == lefts
    assert [g.elements for g in cs.unit_groups] == [g.elements for g in units]
    alg = cs.order.alg
    bound = max(p.norm for p in cs.support)
    th = compute_theta(cs, bound)
    for pi, pr in enumerate(th.primes):
        if pr.ideal not in {p.ideal for p in cs.support}:
            continue
        for bi, b in enumerate(cs.representatives):
            got = [
                ref_lmul(cs.representatives[ai], alg.inv(u))
                for (pj, ai, bj), us in th.entries.items() if (pj, bj) == (pi, bi)
                for u in us
            ]
            assert len(got) == len(set(got)) == pr.norm + 1
            assert set(got) == set(neighbors(b, pr))


def test_walk_and_theta_make_no_isomorphism_test(monkeypatch):
    # across compute_class_set and compute_theta on quad:85: no isomorphism
    # test, no lattice spanned by 64 rows (the full product), and neighbor
    # lists only for the walk's columns that did not close on the classes
    # known, each of which holds a new representative: 4 of the 5 columns
    # the walk fills
    import quatforms.classset as classset
    import quatforms.quaternion as quaternion

    tests = []
    spans = []
    lists = []
    walk, canonical = classset.neighbors, quaternion.canonical_lattice

    def counted_isomorphic(a, b):
        tests.append((a, b))
        return is_isomorphic(a, b)

    def recorded_neighbors(b, p):
        lists.append(walk(b, p))
        return lists[-1]

    def recorded_canonical(rows, den, rank):
        # quaternion lattices only, not the field ideals of reduced norms
        if rank == 8:
            spans.append(len(rows))
        return canonical(rows, den, rank)

    monkeypatch.setattr(classset, "is_isomorphic", counted_isomorphic)
    monkeypatch.setattr(classset, "neighbors", recorded_neighbors)
    monkeypatch.setattr(quaternion, "canonical_lattice", recorded_canonical)
    R = maximal_order("quad:85")
    cs = compute_class_set(R, narrow_support(F85))
    assert (len(lists), len(cs.brandt.columns)) == (4, 5)
    compute_theta(cs, 12)
    assert tests == []
    assert spans and max(spans) < 64
    assert len(lists) == 4
    new = [sum(r in out for r in cs.representatives[1:]) for out in lists]
    assert all(new) and sum(new) == cs.size - 1


def test_walk_identification_checked_under_optimize(run_optimized):
    # a walk blind to the neighbors its witnesses give takes covered
    # neighbors as new classes; with asserts stripped the mass must catch it
    out = run_optimized(
        "from quatforms import classset\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
        "F = field_from_spec('quad:35')\n"
        "R = maximalize(hilbert_ramification_free_algebra(F).standard_order())\n"
        "classset._witness_neighbor = lambda a, u: None\n"
        "try:\n"
        "    print('returned', classset.compute_class_set(R, classset.narrow_support(F)))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith(
        "ArithmeticError: unit masses exceed the Eichler mass; class identification is broken")


def test_class_set_needs_generating_support():
    # a neighbor step at a prime of trivial narrow class keeps the narrow
    # class of the reduced norm, so the walk never reaches the classes of
    # the other norm class and closes below the Eichler mass
    R = maximal_order("quad:85")
    (inert2,) = [p for p in F85.prime_ideals_up_to(4) if p.norm == 4]
    assert F85.narrow_class(inert2.ideal) == 0
    with pytest.raises(ArithmeticError):
        compute_class_set(R, [inert2])


def test_theta_column_sums_and_weighted_symmetry():
    # quad:3 has totally positive units that are not squares, and units
    # of reduced norm 2 + sqrt 3
    for spec, bound in (("quad:10", 5), ("quad:3", 4)):
        cs = class_set(spec)
        th = compute_theta(cs, bound)
        n = cs.size
        if spec == "quad:10":
            assert [p.norm for p in th.primes] == [2, 3, 3, 5]
        for pi, pr in enumerate(th.primes):
            counts = [
                [len(th.entries.get((pi, a, b), [])) for b in range(n)] for a in range(n)
            ]
            for b in range(n):
                assert sum(counts[a][b] for a in range(n)) == pr.norm + 1
            for a in range(n):
                for b in range(n):
                    lhs = cs.unit_groups[a].order * counts[a][b]
                    rhs = cs.unit_groups[b].order * counts[b][a]
                    assert lhs == rhs


@pytest.mark.parametrize("spec,bound", [("quad:10", 3), ("quad:3", 4)])
def test_theta_matches_neighbor_classification(spec, bound):
    # the independent method: build every neighbor lattice and classify it
    # by isomorphism tests against the representatives
    cs = class_set(spec)
    th = compute_theta(cs, bound)
    reps = cs.representatives
    for pi, pr in enumerate(th.primes):
        for bi, b in enumerate(reps):
            counts = [0] * cs.size
            for c in neighbors(b, pr):
                (ai,) = [i for i, a in enumerate(reps) if is_isomorphic(a, c) is not None]
                counts[ai] += 1
            assert counts == [len(th.entries.get((pi, ai, bi), [])) for ai in range(cs.size)]


def test_theta_witnesses_live_in_ideal_quotients():
    cs = class_set("quad:10")
    F = F10
    th = compute_theta(cs, 3)
    alg = cs.order.alg
    for (pi, ai, bi), us in th.entries.items():
        pr = th.primes[pi]
        a = cs.representatives[ai]
        b = cs.representatives[bi]
        hom = a.compose(b.inverse())
        want = a.nr_ideal() * b.nr_ideal().inverse() * pr.ideal
        for u in us:
            assert F.ideal(alg.nr(u)) == want
            assert contains(hom, u)


def test_theta_diagonal_matches_direct_orbit_count():
    # with one class every neighbor is principal, so the table entry at
    # the inert prime (2) must match a direct count of R^x orbits of
    # elements of reduced norm 2
    R = maximal_order("quad:5")
    alg = R.alg
    cs = class_set("quad:5")
    th = compute_theta(cs, 4)
    (pi,) = [i for i, p in enumerate(th.primes) if p.norm == 4]
    sols = []
    for e in F5.totally_positive_units():
        sols.extend(norm_equation_solutions(R, F5.mul(F5.from_int(2), e)))
    # x and y have unit-multiple norms, so x ~ y under R^x exactly when
    # x * conj(y) / nr(y) lies in R
    orbits = []
    for x in sols:
        if not any(contains(R, alg.mul(x, alg.inv(y))) for y in orbits):
            orbits.append(x)
    assert len(orbits) == 5
    assert len(th.entries[(pi, 0, 0)]) == 5


def test_class_set_is_deterministic():
    R = maximal_order("quad:10")
    a = compute_class_set(R, narrow_support(F10))
    b = compute_class_set(R, narrow_support(F10))
    assert [(r.rows, r.den) for r in a.representatives] == [
        (r.rows, r.den) for r in b.representatives
    ]
    assert [g.elements for g in a.unit_groups] == [g.elements for g in b.unit_groups]
    ta = compute_theta(a, 3)
    tb = compute_theta(b, 3)
    assert ta.entries == tb.entries


@pytest.mark.parametrize("spec,extra_norm,digest", [
    ("quad:10", None, "48c8e29235230e095f7f31a38dc25a72e816654158b12afd68248a612fb621e8"),
    # the prime of norm 4 is inert: a residue field of degree 2
    ("quad:85", 4, "3d17ce8f995f456082e3afbca69db2fcd1f5ae471e192d2ef145f5131fdc5859"),
])
def test_neighbor_order_pinned(spec, extra_norm, digest):
    # the order of the neighbor lists decides which lattice the walk keeps
    # as a representative, so it is pinned, not only the lists as sets
    cs = class_set(spec)
    F = cs.order.alg.base
    primes = list(cs.support)
    if extra_norm:
        primes.append(next(p for p in F.prime_ideals_up_to(extra_norm) if p.norm == extra_norm))
    lists = [
        [(c.rows, c.den) for c in neighbors(b, p)]
        for p in primes
        for b in cs.representatives
    ]
    assert hashlib.sha256(repr(lists).encode()).hexdigest() == digest


def test_residue_fields():
    # the residue field of a splitting is the image of O_F in R/pR: F_4 at
    # the inert prime over 2, F_5 at the ramified prime over 5; the
    # quotient projection is a ring map
    R = maximal_order("quad:85")
    alg = R.alg
    rng = random.Random(3)
    inert2 = F85.primes_above(2)[0][0]
    ramified5 = F85.primes_above(5)[0][0]
    for prime, q in ((inert2, 4), (ramified5, 5)):
        res = split_residue_matrix(R, prime)
        assert (res.k.q, len(res.lam), len(res.lam[0])) == (q, 8, 4 * res.k.f)
        quo = res.quo
        for _ in range(10):
            x, y = (R.vector([rng.randint(-9, 9) for _ in range(8)]) for _ in range(2))
            assert quo.proj(alg.mul(x, y)) == quo.algebra.mul(quo.proj(x), quo.proj(y))
    for not_prime in (F85.ideal(6), F85.ideal(Fraction(1, 3))):
        with pytest.raises(ValueError):
            split_residue_matrix(R, not_prime)


def test_splitting_built_once_per_prime(monkeypatch):
    # the quad:85 walk expands 5 representatives at its one support prime
    # and splits R/pR once (split_residue_matrix returns the kept
    # splitting on later calls); neighbors multiplies no quaternions: the
    # residue module and R/pR act through the integer structure table
    import quatforms.classset as classset

    split, mul = classset.MatrixSplitting, QuatAlgebra.mul
    calls = []

    def counted_split(*args):
        calls.append("split")
        return split(*args)

    def counted_mul(self, x, y):
        calls.append("mul")
        return mul(self, x, y)

    R = maximalize(hilbert_ramification_free_algebra(F85).standard_order())
    monkeypatch.setattr(classset, "MatrixSplitting", counted_split)
    cs = compute_class_set(R, narrow_support(F85))
    assert calls.count("split") == 1
    monkeypatch.setattr(QuatAlgebra, "mul", counted_mul)
    calls.clear()
    (pr,) = cs.support
    four = next(p for p in F85.prime_ideals_up_to(4) if p.norm == 4)
    for b in cs.representatives[:2]:
        for p in (pr, four):
            assert len(neighbors(b, p)) == p.norm + 1
    assert calls == ["split"]


def sign_normal(x):
    """The one of x, -x whose first nonzero coordinate is positive."""
    return tuple(-v for v in x) if next(v for v in x if v) < 0 else x


def test_norm_equation_skewed_targets():
    # eps = 3 + sqrt(10) has norm -1, so eps^2k alpha is totally positive
    # and far from balanced; x -> eps^k x maps the solutions for alpha
    # onto those for eps^2k alpha in any O_F-stable lattice
    cs = class_set("quad:10")
    alg = cs.order.alg
    a, b = cs.representatives[2], cs.representatives[1]
    ratio = a.compose(b.inverse())
    assert ratio.nr_ideal().den != 1
    eps = F10.el((3, 1))
    for lat in (cs.order, ratio):
        for alpha in (1, 3):
            base = norm_equation_solutions(lat, alpha)
            assert base
            for k in (1, 2, 3):
                ek = el_pow(F10, eps, k)
                target = F10.mul(F10.mul(ek, ek), F10.from_int(alpha))
                moved = sorted(sign_normal(alg.fmul(ek, x)) for x in base)
                assert norm_equation_solutions(lat, target) == moved


def test_isomorphism_witness_checked_under_optimize(run_optimized):
    # a norm equation that returns a bogus witness must still be caught
    # with asserts stripped
    out = run_optimized(
        "from quatforms import classset\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
        "alg = hilbert_ramification_free_algebra(field_from_spec('quad:5'))\n"
        "R = maximalize(alg.standard_order())\n"
        "classset.norm_equation_solutions = lambda lat, alpha: [alg.one]\n"
        "try:\n"
        "    print('returned', classset.is_isomorphic(R, R.lmul_element(alg.el(1, 1, 1, 0))))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: isomorphism witness")


def test_theta_orbit_count_checked_under_optimize(run_optimized):
    # right matrices doubled make the pair lattice the colon by 2 b, half
    # of a * b^-1, and a norm equation walk that yields 2 x for each
    # solution x gives orbits of four times the norm; with asserts
    # stripped the pair's covolume check must catch the first and the
    # witness norm check the second
    prelude = (
        "from quatforms import classset\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import QuatAlgebra, hilbert_ramification_free_algebra, maximalize\n"
        "alg = hilbert_ramification_free_algebra(field_from_spec('quad:5'))\n"
        "cs = classset.compute_class_set(maximalize(alg.standard_order()), [])\n"
    )
    faults = (
        "right = QuatAlgebra.right_matrix\n"
        "def doubled(self, x):\n"
        "    m, d = right(self, x)\n"
        "    return [[2 * c for c in row] for row in m], d\n"
        "QuatAlgebra.right_matrix = doubled\n",
        "walk = classset.iter_norm_equation_coords\n"
        "classset.iter_norm_equation_coords = lambda lat, alpha: (\n"
        "    tuple(2 * c for c in x) for x in walk(lat, alpha))\n",
    )
    messages = (
        "ArithmeticError: Brandt pair lattice does not have the index of a * b^-1",
        "ArithmeticError: theta witness does not have the target norm",
    )
    for fault, message in zip(faults, messages):
        out = run_optimized(
            prelude + fault
            + "try:\n"
            "    print('returned', classset.compute_theta(cs, 4))\n"
            "except ArithmeticError as exc:\n"
            "    print('ArithmeticError:', exc)\n"
        )
        assert out.startswith(message)


def test_theta_pair_covolume_checked_under_optimize(run_optimized):
    # twice one basis row of the maximal order R of quad:5 generates 2 R
    # only, so the colon by it is R / 2, larger than R * R^-1 = R; with
    # asserts stripped the covolume certificate must catch it before any
    # witness is drawn from the pair lattice
    out = run_optimized(
        "from quatforms import classset\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
        "alg = hilbert_ramification_free_algebra(field_from_spec('quad:5'))\n"
        "classset._right_generators = lambda b, R: [[2 * c for c in b.rows[0]]]\n"
        "cs = classset.compute_class_set(maximalize(alg.standard_order()), [])\n"
        "try:\n"
        "    print('returned', classset.compute_theta(cs, 4))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
        "print(len(cs.brandt.pairs))\n"
    )
    assert out.splitlines() == [
        "ArithmeticError: Brandt pair lattice does not have the index of a * b^-1", "0"]


def test_column_sums_checked_under_optimize(run_optimized):
    # a table that lost one witness of its first entry leaves that column
    # one short of Np + 1; with asserts stripped check_norm_classes must
    # catch it
    out = run_optimized(
        "from quatforms import classset\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
        "alg = hilbert_ramification_free_algebra(field_from_spec('quad:5'))\n"
        "cs = classset.compute_class_set(maximalize(alg.standard_order()), [])\n"
        "th = classset.compute_theta(cs, 4)\n"
        "key = next(iter(th.entries))\n"
        "th.entries[key] = th.entries[key][1:]\n"
        "try:\n"
        "    print('returned', classset.check_norm_classes(cs, th))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: orbit table column does not sum to Np + 1")


def test_double_coset_certificates_under_optimize(run_optimized):
    # packed units that are no group, on three coordinates: a repeated
    # unit leaves an orbit short of |G_a| elements, a shift e1 -> e2 ->
    # e3 makes the orbits of e2 and e1 meet, and a right translate that
    # moves e1 to e2 under trivial left units gives two orbits where the
    # column has room for one.  Each must raise with asserts stripped
    out = run_optimized(
        "from quatforms.classset import _double_coset_orbits, _pack_units, _unit_bound\n"
        "I = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
        "S = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]\n"
        "def units(mats, coeffs):\n"
        "    return _pack_units(mats, coeffs, _unit_bound(mats, coeffs), 72)\n"
        "one = units([I], [[1], [1]])\n"
        "shift = units([I, S], [[1, 0], [0, 1]])\n"
        "ident = units([I], [[1]])\n"
        "e1, e2 = (1, 0, 0), (0, 1, 0)\n"
        "cases = ((one, ident, [e1], 3), (shift, ident, [e2, e1], 3), (ident, shift, [e1], 1))\n"
        "for left, right, seeds, room in cases:\n"
        "    try:\n"
        "        print('returned', _double_coset_orbits(seeds, left, right, set(), room))\n"
        "    except ArithmeticError as exc:\n"
        "        print('ArithmeticError:', exc)\n"
    )
    assert out.splitlines() == [
        "ArithmeticError: left unit orbit is not free through its seed",
        "ArithmeticError: left unit orbits of a cell overlap",
        "ArithmeticError: Brandt column exceeds Np + 1 orbits",
    ]


def packed(mats, coeffs):
    """The _UnitKeys of the units sum_j coeffs[g][j] mats[j], at 72-bit
    slots."""
    return _pack_units(mats, coeffs, _unit_bound(mats, coeffs), 72)


def test_double_coset_orbits_stop_at_room():
    # on Z^2 with no left unit but the identity and the swap as a right
    # translate, the seed (1, 2) gives the orbits of (1, 2) and (2, 1);
    # once the room is used up no further seed is drawn
    ident = packed([[[1, 0], [0, 1]]], [[1]])
    swap = packed([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [[1, 0], [0, 1]])
    drawn = []

    def seeds():
        for x in [(1, 2), (3, 4)]:
            drawn.append(x)
            yield x

    covered = set()
    assert _double_coset_orbits(seeds(), ident, swap, covered, 2) == [(1, 2), (2, 1)]
    assert drawn == [(1, 2)]
    assert {_key_vector(k, ident) for k in covered} == {(1, 2), (2, 1)}
    assert _double_coset_orbits(iter([(2, 1), (3, 4)]), ident, swap, covered, 5) == [
        (3, 4), (4, 3)
    ]


def zero_safe_sign_normal(y):
    """sign_normal, with the zero vector left as it is."""
    return sign_normal(y) if any(y) else y


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unit_keys_match_list_reference(data):
    # random span matrices and unit coefficients, packed at the tightest
    # slot width the check allows for x: the keys decode to the images of
    # the list reference, sign-normalized; raw keys decode to the raw
    # images and order like them; and max(k, 2B - k) is the normalized key
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(1, 8), label="k")
    m = data.draw(st.integers(1, 70), label="m")
    entries = st.integers(-2 ** 40, 2 ** 40)
    mats = data.draw(st.lists(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=k, max_size=k), label="mats")
    coeffs = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                                min_size=m, max_size=m), label="coeffs")
    x = tuple(data.draw(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=n, max_size=n),
                        label="x"))
    bound = _unit_bound(mats, coeffs)
    reach = max(sum(map(abs, x)), 1) * max(bound, 1)
    width = (reach.bit_length() + 8) >> 3 << 3
    units = _pack_units(mats, coeffs, bound, width)
    raw = ref_unit_images(x, mats, coeffs)
    keys = _unit_keys(x, units)
    assert [_key_vector(key, units) for key in keys] == [zero_safe_sign_normal(y) for y in raw]
    assert _key_vector(_vector_key(x, units), units) == x
    # the raw keys: chunk g of bias + sum_i x_i polys[i]
    step = n * width >> 3
    total = (units.bias + sum(xi * p for xi, p in zip(x, units.polys))).to_bytes(m * step, "big")
    cut = [total[g * step:(g + 1) * step] for g in range(m)]
    assert [_key_vector(key, units) for key in cut] == raw
    assert sorted(range(m), key=cut.__getitem__) == sorted(range(m), key=raw.__getitem__)
    twice_zero = 2 * int.from_bytes(_vector_key((0,) * n, units), "big")
    for key, normal in zip(cut, keys):
        key = int.from_bytes(key, "big")
        assert max(key, twice_zero - key) == int.from_bytes(normal, "big")
    if width > 8 and any(x) and bound:
        # one byte less and the width check refuses x
        with pytest.raises(ArithmeticError, match="unit image exceeds the slot width"):
            _unit_keys(x, units._replace(width=width - 8))


def test_slot_width_checked_under_optimize(run_optimized):
    # units whose entry bound E is forced past the slot must be refused
    # before any image is cut, with asserts stripped: in the walk of
    # quad:10, and in theta on quad:5, whose one class needs no walk
    out = run_optimized(
        "from quatforms import classset\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
        "pack = classset._pack_units\n"
        "def forced(mats, coeffs, bound, width):\n"
        "    return pack(mats, coeffs, bound, width)._replace(bound=1 << width)\n"
        "classset._pack_units = forced\n"
        "for spec in ('quad:10', 'quad:5'):\n"
        "    F = field_from_spec(spec)\n"
        "    R = maximalize(hilbert_ramification_free_algebra(F).standard_order())\n"
        "    try:\n"
        "        cs = classset.compute_class_set(R, classset.narrow_support(F))\n"
        "        print('returned', classset.compute_theta(cs, 4))\n"
        "    except ArithmeticError as exc:\n"
        "        print('ArithmeticError:', exc)\n"
    )
    assert out.splitlines() == ["ArithmeticError: unit image exceeds the slot width"] * 2


@pytest.mark.parametrize("spec,bound", [("quad:3", 4), ("quad:5", 11), ("quad:10", 12),
                                        ("quad:85", 4)])
def test_theta_matches_full_enumeration(spec, bound):
    # the double coset walk with its early stop against the full
    # enumeration of every cell, entry by entry and in key order
    cs = class_set(spec)
    got = compute_theta(cs, bound).entries
    want = ref_theta_entries(cs, bound)
    assert list(got) == list(want)
    for key, us in want.items():
        assert got[key] == us, key


@functools.cache
def class_pair_lattices(spec, limit=None):
    """(ai, bi, L) with L = a * b^-1 for ordered pairs of class
    representatives a, b."""
    cs = class_set(spec)
    reps = cs.representatives
    pairs = [(ai, bi) for ai in range(len(reps)) for bi in range(len(reps))]
    if limit is not None:
        pairs = random.Random(spec).sample(pairs, min(limit, len(pairs)))
    return [(ai, bi, reps[ai].compose(reps[bi].inverse())) for ai, bi in pairs]


def reference_norm_equation_solutions(lat, alpha):
    # the Fraction shell-and-filter search: the Gram of Tr(w trd(x conj y))
    # from ref_pair on the ambient basis vectors, the shell mapped to
    # ambient vectors, sign-normalized and sorted, and alg.nr on every
    # shell vector
    alg = lat.alg
    F = alg.base
    alpha = F.el(alpha) if not isinstance(alpha, int) else F.from_int(alpha)
    nm = F.norm(alpha)
    w = F.smul(nm, F.inv(alpha))
    bs = lattice_basis(lat)
    gram = [[F.trace(F.mul(w, ref_pair(alg, x, y))) for y in bs] for x in bs]
    # enumerate_norm takes integers: the Gram cleared of its denominators,
    # on which a target that is not an integer has no vector
    den, ints = integral_rows(gram)
    t = den * 2 * F.degree * nm
    if t.denominator != 1:
        return []
    shell = sorted(
        sign_normal(tuple(sum(c * b[j] for c, b in zip(y, bs)) for j in range(alg.dim)))
        for y in enumerate_norm(ints, int(t), []).vectors
    )
    return [y for y in shell if F.el(alg.nr(y)) == alpha]


@pytest.mark.parametrize("spec", ["quad:10", "quad:85"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_norm_forms_match_reduced_norm(spec, data):
    # nr(x) = sum_k (x N_k x^T / D) w_k on random integer coordinates, over
    # the maximal order and over the ideal quotients theta searches
    lats = [maximal_order(spec)] + [L for _, _, L in class_pair_lattices(spec, limit=6)]
    lat = data.draw(st.sampled_from(lats))
    alg = lat.alg
    x = data.draw(st.lists(st.integers(-30, 30), min_size=alg.dim, max_size=alg.dim))
    forms, D = lat.norm_forms()
    value = tuple(
        Fraction(sum(x[i] * N[i][j] * x[j] for i in range(alg.dim) for j in range(alg.dim)), D)
        for N in forms
    )
    assert value == alg.nr(lat.vector(x))


SPAN_RANKS = {"quad:5": [8], "quad:10": [4, 4, 2, 2], "quad:85": [4, 2, 1, 4, 2, 2, 2, 2]}


@pytest.mark.parametrize("spec", ["quad:5", "quad:10", "quad:85"])
def test_unit_matrices_match_quaternion_products(spec):
    # the images of x under the packed units, built from the span of each
    # class's units, decode to the coordinates of g * x (norm-one units of
    # O_l(a)) and of x * h (those of O_l(b)) on the basis of L = a * b^-1,
    # sign-normalized, in unit order
    cs = class_set(spec)
    units = cs.brandt.classes
    assert [len(cu.lefts) for cu in units] == [len(cu.rights) for cu in units] == SPAN_RANKS[spec]
    alg = cs.order.alg
    for cu, G in zip(units, cs.unit_groups):
        assert len(cu.coeffs) == len(_norm_one_units(alg, G))
    rng = random.Random(7)
    for ai, bi, L in class_pair_lattices(spec, limit=4):
        x = [rng.randint(-5, 5) for _ in range(alg.dim)]
        u = L.vector(x)
        left = _norm_one_units(alg, cs.unit_groups[ai])
        right = _norm_one_units(alg, cs.unit_groups[bi])
        lefts, rights = _unit_matrices(L, units[ai], units[bi])
        ys = [_key_vector(k, lefts) for k in _unit_keys(x, lefts)]
        assert [L.vector(y) for y in ys] == [sign_normal(alg.mul(g, u)) for g in left]
        ys = [_key_vector(k, rights) for k in _unit_keys(x, rights)]
        assert [L.vector(y) for y in ys] == [sign_normal(alg.mul(u, h)) for h in right]


@pytest.mark.parametrize("spec,limit", [("quad:3", None), ("quad:5", None),
                                        ("quad:10", None), ("quad:85", 12)])
def test_norm_equation_solutions_match_fraction_reference(spec, limit):
    # the integer search against the Fraction one, at the targets theta
    # solves and at unit multiples of them, lists and reprs alike
    cs = class_set(spec)
    F = cs.order.alg.base
    primes = F.prime_ideals_up_to(5)
    nonempty = 0
    for ai, _, L in class_pair_lattices(spec, limit):
        for pr in primes:
            beta = F.narrowly_principal_generator(L.nr_ideal() * pr.ideal)
            if beta is None:
                continue
            for e in F.totally_positive_units():
                alpha = F.mul(beta, e)
                got = norm_equation_solutions(L, alpha)
                want = reference_norm_equation_solutions(L, alpha)
                assert got == want
                assert repr(got) == repr(want)
                assert [L.vector(x) for x in sorted(iter_norm_equation_coords(L, alpha))] == got
                nonempty += bool(got)
    assert nonempty


def test_theta_witnesses_pinned_on_quad85():
    # the witnesses themselves, not only their counts, at the paper's field
    th = compute_theta(class_set("quad:85"), 6)
    assert sum(len(v) for v in th.entries.values()) == 152
    digest = hashlib.sha256(repr(sorted(th.entries.items())).encode()).hexdigest()
    assert digest == "cb7fcde8dd59a76c17a19b0c53f3c2c044f4868d95e6c3521b543ccb2d7af6d9"


def test_witnesses_do_not_depend_on_the_walk_order(monkeypatch):
    # each cell keeps the least element of each orbit, in columns that
    # close at exactly Np + 1, so a shell walk run backwards gives the same
    # classes and the same witnesses
    import quatforms.latticetools as latticetools

    want = class_set("quad:85").representatives
    walk = latticetools.fincke_pohst
    bounds = []

    def backwards(gram, bound):
        bounds.append(bound)
        yield from reversed(list(walk(gram, bound)))

    monkeypatch.setattr(latticetools, "fincke_pohst", backwards)
    cs = compute_class_set(maximal_order("quad:85"), narrow_support(F85))
    assert cs.representatives == want
    th = compute_theta(cs, 6)
    assert bounds
    digest = hashlib.sha256(repr(sorted(th.entries.items())).encode()).hexdigest()
    assert digest == "cb7fcde8dd59a76c17a19b0c53f3c2c044f4868d95e6c3521b543ccb2d7af6d9"


@pytest.mark.parametrize("spec,searched,empty", [("quad:85", 16, 6), ("quad:34", 67, 25)])
def test_class_set_walk_searched_and_empty_cells_pinned(spec, searched, empty, monkeypatch):
    # a cell is searched when [nr a] [p] = [nr b] in Cl+(F), and empty
    # when its search finds no witness: deterministic work counts of the
    # class-set walk, read off the cells' arguments and results
    import quatforms.classset as classset

    cell = classset._brandt_cell
    counts = Counter()

    def counted(cs, ai, bi, pr, room):
        xs = cell(cs, ai, bi, pr, room)
        F = cs.order.alg.base
        na, nb = (cs.representatives[i].nr_ideal() for i in (ai, bi))
        if F.narrow_mul[F.narrow_class(na)][F.narrow_class(pr.ideal)] == F.narrow_class(nb):
            counts["searched"] += 1
            counts["empty"] += not xs
        return xs

    monkeypatch.setattr(classset, "_brandt_cell", counted)
    R = maximal_order(spec)
    compute_class_set(R, narrow_support(R.alg.base))
    assert (counts["searched"], counts["empty"]) == (searched, empty)
