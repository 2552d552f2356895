import functools

import pytest

from quatforms.classset import compute_class_set, compute_theta, narrow_support
from quatforms.eigen import build_report
from quatforms.heckespace import (
    WeightSpec,
    build_space,
    dimension_report,
    hecke_operator,
    parallel_weight_two,
)
from quatforms.numberfield import field_from_spec
from quatforms.quaternion import hilbert_ramification_free_algebra


@functools.cache
def q5_bound4():
    """quad:5 (one class, 60 units mod base units) with the bound-4 table."""
    F = field_from_spec("quad:5")
    R = hilbert_ramification_free_algebra(F).maximal_order()
    cs = compute_class_set(R, narrow_support(F))
    return F, cs, compute_theta(cs, 4)


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
    assert [c.eigenvalue(i) for i in range(len(blocks))] == [
        pr.norm + 1 for pr in th.primes
    ]


def test_level_one_dimension_report():
    F, cs, th = q5_bound4()
    dr = dimension_report(cs, th, F.unit_ideal())
    assert (dr.total, dr.eisenstein, dr.cusp, dr.new_strict, dr.new_above_one) == (
        1, 1, 0, 0, 0,
    )


def test_build_space_rejects_higher_weight():
    F, cs, _ = q5_bound4()
    with pytest.raises(ValueError, match="parallel weight 2"):
        build_space(cs, F.unit_ideal(), WeightSpec((4, 4)))
