import functools
import hashlib
import itertools
import math
from collections import Counter

import pytest

from fraction_refs import ref_coords
from quatforms import eigen, heckespace
from quatforms.classset import ResidueSplitting, compute_class_set, compute_theta, narrow_support
from quatforms.eigen import _restrict, build_report, decompose
from quatforms.heckespace import (
    build_space,
    build_splitting,
    dimension_report,
    hecke_operator,
    parallel_weight_two,
)
from quatforms.numberfield import FieldIdeal, field_from_spec
from quatforms.polynomials import factor_poly
from quatforms.quaternion import QuatAlgebra, hilbert_ramification_free_algebra, maximalize
from quatforms.residue import p1_act


@functools.cache
def class_set(spec):
    F = field_from_spec(spec)
    R = maximalize(hilbert_ramification_free_algebra(F).standard_order())
    return compute_class_set(R, narrow_support(F))


@functools.cache
def theta(spec, bound):
    return compute_theta(class_set(spec), bound)


def q5_bound4():
    """quad:5 (one class, 60 units mod base units) with the bound-4 table."""
    cs = class_set("quad:5")
    return cs.order.alg.base, cs, theta("quad:5", 4)


def level(F, *norms):
    """Product of the first prime of each norm, in prime_ideals_up_to order."""
    N = F.unit_ideal()
    for n in norms:
        N = N * next(p for p in F.prime_ideals_up_to(n) if p.norm == n).ideal
    return N


def closure_orbits(sp, units):
    """Orbits of the unit images on P^1 by breadth-first closure."""
    sm = sp.splitting
    gens = [sm.image(u) for u in units.elements]
    seen = set()
    orbits = []
    for start in range(sm.size):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            pt = frontier.pop()
            for mats in gens:
                qi = sm.act(mats, pt)
                if qi not in orbit:
                    orbit.add(qi)
                    frontier.append(qi)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


@pytest.mark.parametrize("norms", [(31,), (31, 41), (9, 31)])
def test_orbits_equal_the_closure_under_unit_images(norms):
    F, cs, _ = q5_bound4()
    sp = build_space(cs, level(F, *norms), parallel_weight_two(F))
    (units,) = cs.unit_groups
    assert sp.splitting.unit_images == [[sp.splitting.image(u) for u in units.elements]]
    assert sp.orbits == [closure_orbits(sp, units)]
    assert sum(len(o) for o in sp.orbits[0]) == sp.splitting.size == math.prod(n + 1 for n in norms)
    assert all(sp.lookups[0][i] == k for k, orb in enumerate(sp.orbits[0]) for i in orb)


def test_orbit_partition_checked_under_optimize(run_optimized):
    # a unit group missing one element leaves an image set short of its
    # orbit, so a later start point overlaps it; asserts are stripped
    out = run_optimized(
        "import dataclasses\n"
        "from quatforms.classset import UnitGroup, compute_class_set, narrow_support\n"
        "from quatforms.heckespace import build_space, parallel_weight_two\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
        "F = field_from_spec('quad:5')\n"
        "R = maximalize(hilbert_ramification_free_algebra(F).standard_order())\n"
        "cs = compute_class_set(R, narrow_support(F))\n"
        "G = cs.unit_groups[0]\n"
        "els = G.elements[:7] + G.elements[8:]\n"
        "nrs = G.norms[:7] + G.norms[8:]\n"
        "cs = dataclasses.replace(cs, unit_groups=[UnitGroup(els, len(els), nrs)])\n"
        "N = F.unit_ideal()\n"
        "for n in (31, 41):\n"
        "    N = N * next(p for p in F.prime_ideals_up_to(n) if p.norm == n).ideal\n"
        "try:\n"
        "    print('returned', build_space(cs, N, parallel_weight_two(F)).dim)\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: unit orbits do not partition")


def test_point_index_order_pinned():
    # a point of P^1(O/N) is the mixed-radix number of its indices at the
    # level primes, the first most significant; the orbits at 31*41 are
    # pinned on the earlier point tuples in itertools.product order, by
    # their positions in that list
    F, cs, _ = q5_bound4()
    sp = build_space(cs, level(F, 31, 41), parallel_weight_two(F))
    sm = sp.splitting
    k31, k41 = (c.k for c in sm.components)
    assert (k31.q, k41.q, sm.size) == (31, 41, 32 * 42)
    for mats in sm.unit_images[0][:6]:
        for i in range(sm.size):
            hi, lo = divmod(i, 42)
            assert sm.act(mats, i) == 42 * p1_act(k31, mats[0], hi) + p1_act(k41, mats[1], lo)
    assert hashlib.sha256(repr(sp.orbits).encode()).hexdigest() == (
        "c45a7d0b70d3907039014b9301549e210b8ec83a0dc24d9f0b30af5e4e8df7c9"
    )


# (field, level norms, bound, (total, eis, cusp, new_strict, new_above_one));
# eisenstein is the narrow class number h+ whatever the bound.  quad:15
# at level 1, bound 2 and quad:5 at its norm-4 prime, bound 4, tabulate
# too few primes coprime to the level to split the space into eigenlines.
DIMENSION_TABLE = {
    "quad5-31x41": ("quad:5", (31, 41), 5, (24, 1, 23, 19, 23)),
    # the prime of norm 9 is inert: a residue field of degree 2
    "quad5-9x31": ("quad:5", (9, 31), 11, (6, 1, 5, 3, 5)),
    "quad5-1": ("quad:5", (), 4, (1, 1, 0, 0, 0)),
    "quad5-31": ("quad:5", (31,), 11, (2, 1, 1, 1, 1)),
    "quad5-11x19": ("quad:5", (11, 19), 7, (4, 1, 3, 3, 3)),
    "quad10-1": ("quad:10", (), 12, (4, 2, 2, 2, 2)),
    "quad10-3": ("quad:10", (3,), 7, (6, 2, 4, 0, 2)),
    "quad10-3x13": ("quad:10", (3, 13), 7, (68, 2, 66, 26, 64)),
    "quad85-1": ("quad:85", (), 6, (8, 2, 6, 6, 6)),
    "quad13-3": ("quad:13", (3,), 5, (1, 1, 0, 0, 0)),
    "quad3-11": ("quad:3", (11,), 5, (2, 2, 0, 0, 0)),
    "quad6-5": ("quad:6", (5,), 7, (4, 2, 2, 0, 1)),
    "quad15-7": ("quad:15", (7,), 5, (24, 4, 20, 12, 16)),
    "quad15-1-bound2": ("quad:15", (), 2, (8, 4, 4, 4, 4)),
    "quad5-4-bound4": ("quad:5", (4,), 4, (1, 1, 0, 0, 0)),
}


@pytest.mark.parametrize(
    "spec, norms, bound, dims", DIMENSION_TABLE.values(), ids=DIMENSION_TABLE.keys(),
)
def test_dimension_report_table(spec, norms, bound, dims):
    cs = class_set(spec)
    F = cs.order.alg.base
    dr = dimension_report(cs, theta(spec, bound), level(F, *norms))
    assert dr.eisenstein == F.narrow_class_number
    assert (dr.total, dr.eisenstein, dr.cusp, dr.new_strict, dr.new_above_one) == dims


def test_dimension_report_builds_no_hecke_block(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dimension_report must not build Hecke blocks")

    F, cs, _ = q5_bound4()
    monkeypatch.setattr(heckespace, "hecke_operator", refuse)
    monkeypatch.setattr(eigen, "decompose", refuse)
    monkeypatch.setattr(eigen, "flag_eisenstein", refuse)
    dr = dimension_report(cs, theta("quad:5", 5), level(F, 31, 41))
    assert (dr.total, dr.eisenstein) == (24, 1)
    # nothing of eigen is bound in heckespace
    assert not any(
        getattr(v, "__module__", None) == eigen.__name__ for v in vars(heckespace).values()
    )


QUAD10_OPTIMIZED = (
    "import dataclasses\n"
    "from quatforms.classset import compute_class_set, compute_theta, narrow_support\n"
    "from quatforms.heckespace import dimension_report\n"
    "from quatforms.numberfield import field_from_spec\n"
    "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
    "F = field_from_spec('quad:10')\n"
    "R = maximalize(hilbert_ramification_free_algebra(F).standard_order())\n"
    "cs = compute_class_set(R, narrow_support(F))\n"
    "th = compute_theta(cs, 5)\n"
    "classes = cs.norm_classes()\n"
)


def test_norm_surjectivity_checked_under_optimize(run_optimized):
    # a class set cut down to the classes of narrowly trivial norm misses
    # the other narrow class; with asserts stripped it must still raise
    out = run_optimized(
        QUAD10_OPTIMIZED
        + "keep = [i for i, c in enumerate(classes) if c == 0]\n"
        "cs = dataclasses.replace(\n"
        "    cs, **{f: [getattr(cs, f)[i] for i in keep]\n"
        "           for f in ('representatives', 'left_orders', 'unit_groups')})\n"
        "try:\n"
        "    print('returned', dimension_report(cs, th, F.unit_ideal()))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: representative norms miss a narrow class")


def test_norm_class_identity_checked_under_optimize(run_optimized):
    # one witness moved, in one column, to a class of the other narrow
    # class: the column still sums to Np + 1, so only the e_chi identity
    # catches it
    out = run_optimized(
        QUAD10_OPTIMIZED
        + "pi, ai, bi = next(iter(th.entries))\n"
        "aj = next(i for i, c in enumerate(classes) if c != classes[ai])\n"
        "u = th.entries[pi, ai, bi].pop()\n"
        "th.entries.setdefault((pi, aj, bi), []).append(u)\n"
        "try:\n"
        "    print('returned', dimension_report(cs, th, F.unit_ideal()))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: theta witness leaves the norm class")


def test_multiplier_certificate_checked_under_optimize(run_optimized):
    # units of quad:10 with denominator 4 need a multiplier at the first
    # prime of norm 3; one off by one is 2, not 1, modulo the prime, and
    # with asserts stripped the certificate must still raise
    out = run_optimized(
        QUAD10_OPTIMIZED
        + "from quatforms import classset, heckespace\n"
        "one_mod_prime = classset.ResidueSplitting._one_mod_prime\n"
        "classset.ResidueSplitting._one_mod_prime = (\n"
        "    lambda self, d: F.add(one_mod_prime(self, d), F.one))\n"
        "N = next(p for p in F.prime_ideals_up_to(3) if p.norm == 3).ideal\n"
        "try:\n"
        "    print('returned', heckespace.build_splitting(cs, N))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: multiplier is not congruent to 1 modulo the prime")


def ref_reduce(comp, x):
    """The reduction as it was computed before the F_p-matrix lam: Fraction
    coordinates over the order (to read the denominators), the quotient
    projection of the ambient vector and the splitting image."""
    coords = ref_coords(comp.order, x)
    x = comp._clear([c.denominator for c in coords], x)
    return comp.split.image(comp.quo.proj(x))


@pytest.mark.parametrize("spec,bound,norms,rows,cleared", [
    ("quad:5", 5, (31, 41), None, False),
    ("quad:5", 11, (9, 31), None, False),
    ("quad:10", 5, (3,), None, True),
    # conjugate of the norm-3 support prime: 3 divides the denominator 27
    ("quad:85", 4, (), [[3, 0], [0, 1]], True),
], ids=["quad5-31x41", "quad5-9x31", "quad10-3", "quad85-conjugate3"])
def test_reduce_matches_three_step_reference(spec, bound, norms, rows, cleared, monkeypatch):
    cs = class_set(spec)
    F = cs.order.alg.base
    N = level(F, *norms) if rows is None else FieldIdeal(F, rows, 1)
    multipliers = []
    one_mod_prime = ResidueSplitting._one_mod_prime

    def recording(self, d):
        multipliers.append(d)
        return one_mod_prime(self, d)

    monkeypatch.setattr(ResidueSplitting, "_one_mod_prime", recording)
    sm = build_splitting(cs, N)
    elements = [u for units in cs.unit_groups for u in units.elements]
    elements += [u for us in theta(spec, bound).entries.values() for u in us]
    for comp in sm.components:
        for x in elements:
            coded = tuple(tuple(comp.k.coords(e) for e in row) for row in comp.reduce(x))
            assert coded == ref_reduce(comp, x)
    assert bool(multipliers) == cleared


def test_reduction_map_checked_under_optimize(run_optimized):
    # one corrupted entry of the reduction map lam must trip a certificate
    # of build_splitting with asserts stripped; the order is split at the
    # level prime only after the patch, so the kept splitting is corrupted
    out = run_optimized(
        "from quatforms import classset, heckespace\n"
        "from quatforms.classset import compute_class_set, narrow_support\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
        "F = field_from_spec('quad:5')\n"
        "R = maximalize(hilbert_ramification_free_algebra(F).standard_order())\n"
        "cs = compute_class_set(R, narrow_support(F))\n"
        "init = classset.ResidueSplitting.__init__\n"
        "def corrupt(self, *args, **kwargs):\n"
        "    init(self, *args, **kwargs)\n"
        "    self.lam = [list(row) for row in self.lam]\n"
        "    self.lam[1][1] += 1\n"
        "classset.ResidueSplitting.__init__ = corrupt\n"
        "N = next(p for p in F.prime_ideals_up_to(31) if p.norm == 31).ideal\n"
        "try:\n"
        "    print('returned', heckespace.build_splitting(cs, N))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith(("ArithmeticError: splitting determinant mismatch",
                           "ArithmeticError: splitting is not multiplicative"))


def test_dimension_report_splits_each_level_prime_once(monkeypatch):
    # one splitting at 31*41, and the orbits are counted, not listed: no
    # point of P^1 is moved and no orbit space is built at any sublevel
    F, cs, _ = q5_bound4()
    th = compute_theta(cs, 5)
    calls = Counter()
    component, split = heckespace.split_residue_matrix, heckespace.build_splitting

    def counting_component(*args, **kwargs):
        calls["components"] += 1
        return component(*args, **kwargs)

    def counting_split(*args, **kwargs):
        calls["splittings"] += 1
        return split(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("dimension_report must not list orbits")

    monkeypatch.setattr(heckespace, "split_residue_matrix", counting_component)
    monkeypatch.setattr(heckespace, "build_splitting", counting_split)
    monkeypatch.setattr(heckespace, "build_space", refuse)
    monkeypatch.setattr(heckespace, "p1_act", refuse)
    # the shared class set may keep this level's splitting already
    monkeypatch.setattr(cs, "splittings", {})
    dr = dimension_report(cs, th, level(F, 31, 41))
    monkeypatch.undo()
    assert calls == {"components": 2, "splittings": 1}
    assert (dr.total, dr.cusp, dr.new_strict) == (24, 23, 19)


LEVELED = [(k, v) for k, v in DIMENSION_TABLE.items() if v[1]]


@pytest.mark.parametrize(
    "spec, norms, bound", [v[:3] for _, v in LEVELED], ids=[k for k, _ in LEVELED],
)
def test_burnside_totals_match_listed_orbits(spec, norms, bound):
    # the orbit count at every sublevel M | N, by fixed points, equals the
    # number of orbits build_space lists at M
    cs = class_set(spec)
    F = cs.order.alg.base
    th = theta(spec, bound)
    w = parallel_weight_two(F)
    for r in range(len(norms) + 1):
        for sub in itertools.combinations(norms, r):
            M = level(F, *sub)
            assert dimension_report(cs, th, M).total == build_space(cs, M, w).dim


def test_burnside_divisibility_checked_under_optimize(run_optimized):
    # a unit group missing one element is no group: its fixed point sums
    # at 31*41 are not all multiples of its size; asserts are stripped
    out = run_optimized(
        "import dataclasses\n"
        "from quatforms.classset import (\n"
        "    UnitGroup, compute_class_set, compute_theta, narrow_support,\n"
        ")\n"
        "from quatforms.heckespace import dimension_report\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize\n"
        "F = field_from_spec('quad:5')\n"
        "R = maximalize(hilbert_ramification_free_algebra(F).standard_order())\n"
        "cs = compute_class_set(R, narrow_support(F))\n"
        "th = compute_theta(cs, 5)\n"
        "G = cs.unit_groups[0]\n"
        "els = G.elements[:7] + G.elements[8:]\n"
        "nrs = G.norms[:7] + G.norms[8:]\n"
        "cs = dataclasses.replace(\n"
        "    cs, unit_groups=[UnitGroup(els, len(els), nrs)], splittings={},\n"
        ")\n"
        "N = F.unit_ideal()\n"
        "for n in (31, 41):\n"
        "    N = N * next(p for p in F.prime_ideals_up_to(n) if p.norm == n).ideal\n"
        "try:\n"
        "    print('returned', dimension_report(cs, th, N))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: fixed point sum is not divisible")


def test_level_primes_split_once_per_order(monkeypatch):
    # build_space and then dimension_report on one class set split the
    # order once at each level prime: the splitting is kept on the order
    F = field_from_spec("quad:5")
    R = maximalize(hilbert_ramification_free_algebra(F).standard_order())
    cs = compute_class_set(R, narrow_support(F))
    th = compute_theta(cs, 4)
    N = level(F, 31, 41)
    split = heckespace.split_residue_matrix
    primes = []

    def counted(order, prime):
        primes.append(prime.norm())
        return split(order, prime)

    monkeypatch.setattr(heckespace, "split_residue_matrix", counted)
    sp = build_space(cs, N, parallel_weight_two(F))
    dr = dimension_report(cs, th, N)
    assert sorted(primes) == [31, 41]
    assert sp.splitting.components == [R._splits[q] for q, _ in N.factor()]
    assert (dr.total, dr.cusp) == (24, 23)


def test_ideals_of_another_field_context_rejected():
    # two contexts of quad:5 are equal fields, but their ideals never
    # compare equal; mixing them is refused up front
    cs1, th1 = class_set("quad:5"), theta("quad:5", 11)
    F1, F2 = cs1.order.alg.base, field_from_spec("quad:5")
    assert F1 is not F2
    R2 = maximalize(hilbert_ramification_free_algebra(F2).standard_order())
    cs2 = compute_class_set(R2, narrow_support(F2))
    th2 = compute_theta(cs2, 11)
    w = parallel_weight_two(F1)
    with pytest.raises(ValueError, match="another field context"):
        build_space(cs1, level(F2, 9), w)
    with pytest.raises(ValueError, match="another field context"):
        dimension_report(cs1, th2, level(F1, 9))
    sp = build_space(cs1, level(F1, 9), w)
    with pytest.raises(ValueError, match="another field context"):
        hecke_operator(cs1, th2, sp, th1.primes[0])
    assert dimension_report(cs1, th1, level(F1, 9)).total == dimension_report(
        cs2, th2, level(F2, 9)
    ).total


def test_splitting_kept_per_level_on_the_class_set(monkeypatch):
    # build_space and dimension_report at one level share one checked
    # splitting: a second build_splitting returns it and reduces nothing
    F, cs, _ = q5_bound4()
    monkeypatch.setattr(cs, "splittings", {})
    N = level(F, 31)
    sm = build_splitting(cs, N)
    reduced = []
    reduce = ResidueSplitting.reduce

    def counting(self, x):
        reduced.append(x)
        return reduce(self, x)

    monkeypatch.setattr(ResidueSplitting, "reduce", counting)
    assert build_splitting(cs, N) is sm
    assert build_space(cs, N, parallel_weight_two(F)).splitting is sm
    assert reduced == []
    assert cs.splittings == {N: sm}
    assert build_splitting(cs, level(F, 41)) is not sm
    assert reduced


def test_splitting_reduces_each_unit_norm_once(monkeypatch):
    # the determinant check reads each unit's norm off the unit group and
    # reduces every distinct norm once per level prime, in integers; quad:3
    # has units of norm 1 and 2 + sqrt 3
    cs = class_set("quad:3")
    F = cs.order.alg.base
    N = level(F, 11, 13)
    monkeypatch.setattr(cs, "splittings", {})
    reduced = []
    reduce_scalar = ResidueSplitting.reduce_scalar

    def counting(self, c):
        reduced.append((self.prime, c))
        return reduce_scalar(self, c)

    def refuse(self, x):
        raise AssertionError("reduced norm recomputed")

    monkeypatch.setattr(ResidueSplitting, "reduce_scalar", counting)
    monkeypatch.setattr(QuatAlgebra, "nr", refuse)
    sm = build_splitting(cs, N)
    norms = {e for G in cs.unit_groups for e in G.norms}
    assert len(norms) == 2
    assert len(reduced) == len(set(reduced)) == len(norms) * len(sm.components) == 4


def test_level_three_over_quad10_clears_denominators(monkeypatch):
    # units of the left orders other than R have coordinates with
    # denominator 4 at the support prime of norm 2; reducing them at the
    # level needs a field multiplier congruent to 1 mod the level prime
    F = field_from_spec("quad:10")
    R = maximalize(hilbert_ramification_free_algebra(F).standard_order())
    cs = compute_class_set(R, narrow_support(F))
    N = level(F, 3)
    calls = []
    one_mod_prime = ResidueSplitting._one_mod_prime

    def counting(self, d):
        calls.append(d)
        return one_mod_prime(self, d)

    monkeypatch.setattr(ResidueSplitting, "_one_mod_prime", counting)
    build_splitting(cs, N)
    assert calls == [4, 4]
    dr = dimension_report(cs, compute_theta(cs, 5), N)
    assert (dr.total, dr.eisenstein, dr.cusp, dr.new_strict, dr.new_above_one) == (
        6, 2, 4, 0, 2,
    )


def test_level_one_report_is_the_eisenstein_line():
    F, cs, th = q5_bound4()
    N = F.unit_ideal()
    w = parallel_weight_two(F)
    sp = build_space(cs, N, w)
    blocks = [hecke_operator(cs, th, sp, pr) for pr in th.primes]
    assert blocks
    rep = build_report(F, N, w, blocks)
    assert len(rep.constituents) == 1
    (c,) = rep.constituents
    assert c.eisenstein and c.dimension == 1
    assert [tuple(g.coeffs) for g, _ in c.factors] == [
        (-(pr.norm + 1), 1) for pr in th.primes
    ]


def test_eisenstein_flags_cover_the_dimension_report_on_quad34():
    # Cl+ of Q(sqrt 34) is cyclic of order 4: its two quartic characters
    # give one 2-dim piece with a_p = +-4i at the norm-3 primes, which is
    # Eisenstein as much as the two rational lines are
    cs = class_set("quad:34")
    F = cs.order.alg.base
    th = theta("quad:34", 3)
    N = F.unit_ideal()
    w = parallel_weight_two(F)
    sp = build_space(cs, N, w)
    rep = build_report(F, N, w, [hecke_operator(cs, th, sp, pr) for pr in th.primes])
    flagged = [c.dimension for c in rep.constituents if c.eisenstein]
    assert sorted(flagged) == [1, 1, 2]
    assert sum(flagged) == dimension_report(cs, th, N).eisenstein == 4


def test_build_space_rejects_higher_weight():
    F, cs, _ = q5_bound4()
    with pytest.raises(ValueError, match="parallel weight 2"):
        build_space(cs, F.unit_ideal(), (4, 4))


def test_non_commuting_blocks_rejected_under_optimize(run_optimized):
    # diag(1, 2) and the swap do not commute; with asserts stripped the
    # commutation certificate must still raise before any splitting
    out = run_optimized(
        "from types import SimpleNamespace\n"
        "from quatforms.eigen import decompose\n"
        "from quatforms.matrices import Matrix\n"
        "blocks = [SimpleNamespace(matrix=Matrix(m), prime=None)\n"
        "          for m in ([[1, 0], [0, 2]], [[0, 1], [1, 0]])]\n"
        "try:\n"
        "    print('returned', decompose(blocks))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: Hecke blocks do not commute")


@functools.cache
def blocks_31x41():
    """The Hecke blocks of quad:5 at level 31*41 from the bound-5 table."""
    F, cs, _ = q5_bound4()
    th = theta("quad:5", 5)
    sp = build_space(cs, level(F, 31, 41), parallel_weight_two(F))
    return [hecke_operator(cs, th, sp, pr) for pr in th.primes if pr.norm not in (31, 41)]


def test_carried_factor_data_matches_direct_restriction():
    # decompose factors only the (piece, block) pairs it does not know;
    # the factor data it carries must be what restricting would give
    blocks = blocks_31x41()
    cons = decompose(blocks)
    assert sum(c.dimension for c in cons) == len(blocks[0].matrix.rows) == 24
    assert any(e > 1 for c in cons for _, e in c.factors)
    for c in cons:
        assert all(math.gcd(*row) == 1 for row in c.basis)
        for block, fac in zip(blocks, c.factors):
            assert factor_poly(_restrict(block.matrix.rows, c.basis).charpoly())[1] == [fac]


def test_restriction_to_an_unstable_subspace_raises():
    # the swap moves the first coordinate line off itself
    with pytest.raises(ArithmeticError, match="subspace is not stable"):
        _restrict([[0, 1], [1, 0]], [[1, 0]])


def test_decompose_piece_bases_pinned():
    # the integer generalized eigenspaces give the pieces of the earlier
    # Fraction right_kernel: SHA-256 of the bases, factor data and flags
    # in decompose's order, pinned on that earlier implementation
    cons = decompose(blocks_31x41())
    assert [c.dimension for c in cons] == [1, 1, 1, 2, 2, 2, 2, 4, 4, 5]
    text = repr([(c.basis, [(tuple(g.coeffs), e) for g, e in c.factors], c.certified) for c in cons])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ddf71349b287a480105310f2dd1712bc0e39ce09b263c561306297b9600fcd87"
    )


# decompose's certificates under -O: a factor_poly that misreports the
# first characteristic polynomial stands in for a faulty factorization
LYING_DECOMPOSE = (
    "from types import SimpleNamespace\n"
    "from quatforms import eigen\n"
    "from quatforms.matrices import Matrix\n"
    "from quatforms.polynomials import Poly\n"
    "real, calls = eigen.factor_poly, []\n"
    "def lying(f):\n"
    "    calls.append(f)\n"
    "    return (1, {lie}) if len(calls) == 1 else real(f)\n"
    "eigen.factor_poly = lying\n"
    "blocks = [SimpleNamespace(matrix=Matrix(m), prime=None) for m in {mats}]\n"
    "try:\n"
    "    print('returned', eigen.decompose(blocks))\n"
    "except ArithmeticError as exc:\n"
    "    print('ArithmeticError:', exc)\n"
)


def diag(*entries):
    return [[v if i == j else 0 for j in range(len(entries))] for i, v in enumerate(entries)]


@pytest.mark.parametrize("lie, mats, message", [
    # diag(1, 1, 2) claimed to have (x - 1)(x - 2)^2: ker(M - 1) has dimension 2, not 1
    ("[(Poly([-1, 1]), 1), (Poly([-2, 1]), 2)]", [diag(1, 1, 2)],
     "generalized eigenspace has the wrong dimension"),
    # I_4 claimed to have (x^2 + 1)^2; diag(1, 1, 1, 2) then cuts out a 3-dim piece
    ("[(Poly([1, 0, 1]), 2)]", [diag(1, 1, 1, 1), diag(1, 1, 1, 2)],
     "eigenspace dimension is not a multiple of a factor degree"),
    # I_2 claimed irreducible x^2 + 1, so the piece is final; diag(1, 2) is not isotypic on it
    ("[(Poly([1, 0, 1]), 1)]", [diag(1, 1), diag(1, 2)],
     "piece is not isotypic for some operator"),
    # diag(1, 2, 3) claimed to have (x - 1)(x - 2): each kernel has its
    # dimension, but the two pieces miss the third coordinate line
    ("[(Poly([-1, 1]), 1), (Poly([-2, 1]), 1)]", [diag(1, 2, 3)],
     "constituent dimensions do not add up to the space"),
], ids=["wrong-dimension", "not-a-degree-multiple", "not-isotypic", "dimensions-short"])
def test_decompose_certificates_checked_under_optimize(run_optimized, lie, mats, message):
    out = run_optimized(LYING_DECOMPOSE.format(lie=lie, mats=mats))
    assert out.startswith(f"ArithmeticError: {message}")


def test_presentation_identity_checked_under_optimize(run_optimized):
    # the generator [[1, 0], [1, 2]] is cyclic on e_0, and the swap, which
    # does not commute with it, stands in for a faulty restriction: its
    # Krylov coordinates exist, but the polynomial they give is not the
    # swap, and with asserts stripped the matrix identity must catch it
    out = run_optimized(
        "from types import SimpleNamespace\n"
        "from quatforms.eigen import Constituent, present_eigenvalues\n"
        "from quatforms.matrices import Matrix\n"
        "from quatforms.polynomials import Poly\n"
        "blocks = [SimpleNamespace(matrix=Matrix(m), prime=None)\n"
        "          for m in ([[1, 0], [1, 2]], [[0, 1], [1, 0]])]\n"
        "c = Constituent(basis=[[1, 0], [0, 1]], primes=[None, None], certified=True,\n"
        "                factors=[(Poly([2, -3, 1]), 1), (Poly([-1, 0, 1]), 1)])\n"
        "try:\n"
        "    print('returned', present_eigenvalues(c, blocks))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: operator is not a polynomial in the generator")


@pytest.mark.parametrize("spec", ["quad:10", "quad:85"])
def test_multiplier_closed_form_at_split_inert_and_ramified_primes(spec):
    # t = 1 modulo q, and t is a multiple of d away from q:
    # (t) lies in (d) q^-v_q(d), whether l splits, stays inert or ramifies
    F = field_from_spec(spec)
    order = hilbert_ramification_free_algebra(F).standard_order()
    kinds = set()
    for pr in F.prime_ideals_up_to(50):
        q = pr.ideal
        comp = ResidueSplitting(order, q, None, None, None, None)
        kinds.add((pr.f, pr.e))
        for d in (1, pr.p, pr.p ** 3, 6 * pr.p ** 2, 35):
            t = comp._one_mod_prime(d)
            assert q.contains(F.sub(F.one, t)), (pr, d)
            J = F.ideal(d) * q.inverse() ** F.ideal(d).valuation(q)
            assert J.divides(F.ideal(t)), (pr, d)
    assert kinds == {(1, 1), (2, 1), (1, 2)}
