"""The benchmarked pipeline: one workload through the public quatforms API.

field -> definite algebra and maximal order -> class set -> theta table
-> level-N orbit space -> Hecke blocks -> eigen report and dimension
report.  The result is a plain dict; run.serialize gives the canonical
text that the benchmark compares with the hand-written expected files.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

from quatforms.classset import compute_class_set, compute_theta, narrow_support
from quatforms.eigen import build_report
from quatforms.heckespace import (
    build_space,
    dimension_report,
    hecke_operator,
    parallel_weight_two,
)
from quatforms.numberfield import field_from_spec
from quatforms.quaternion import hilbert_ramification_free_algebra, maximalize


@dataclass(frozen=True)
class Workload:
    """A field, a squarefree level given by prime norms, and a theta bound.

    Each level prime is the first prime of its norm in the field's
    prime_ideals_up_to order.  eigen selects the full eigen report at the
    level; without it only the dimension report is computed.
    """

    field: str
    level_norms: tuple
    bound: int
    eigen: bool = True


WORKLOADS = {
    "brandt_q10": Workload("quad:10", (), 12),
    "newform_q5_n31": Workload("quad:5", (31,), 11),
    "dimrep_q5_n31x41": Workload("quad:5", (31, 41), 5, eigen=False),
    # small enough for the benchmark's own tests; not a measured workload
    "tiny_q5": Workload("quad:5", (), 4),
}

STAGES = ("setup", "class_set", "theta", "level")


class StageClock:
    """Wall time of the top-level pipeline stages, in call order."""

    def __init__(self):
        self.times = {}

    @contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = time.perf_counter() - t0


def setup(spec):
    """Field, ramification-free definite algebra, and its maximal order."""
    F = field_from_spec(spec)
    alg = hilbert_ramification_free_algebra(F)
    return F, maximalize(alg.standard_order())


def level_ideal(F, norms):
    N = F.unit_ideal()
    for n in norms:
        pr = next((p for p in F.prime_ideals_up_to(n) if p.norm == n), None)
        if pr is None:
            raise ValueError(f"{F!r} has no prime of norm {n}")
        N = N * pr.ideal
    return N


def run(wl, seed, clock):
    """Run one workload; returns the report dict.

    clock.stage(name) wraps each top-level stage.  seed goes to the
    build_space call of the eigen report, whose residue splittings it
    randomizes; the report must not depend on it.
    """
    with clock.stage("setup"):
        F, R = setup(wl.field)
    with clock.stage("class_set"):
        cs = compute_class_set(R, narrow_support(F))
    with clock.stage("theta"):
        th = compute_theta(cs, wl.bound)
    with clock.stage("level"):
        N = level_ideal(F, wl.level_norms)
        if wl.eigen:
            constituents, prime_norms = eigen_report(F, cs, th, N, seed)
        dr = dimension_report(cs, th, N)
    report = {
        "field": wl.field,
        "level_norms": list(wl.level_norms),
        "bound": wl.bound,
        "classes": cs.size,
        "mass": str(cs.mass),
        "dimension_report": {
            "total": dr.total,
            "eisenstein": dr.eisenstein,
            "cusp": dr.cusp,
            "new_strict": dr.new_strict,
            "new_above_one": dr.new_above_one,
        },
    }
    if wl.eigen:
        report["constituents"] = constituents
        report["hecke_prime_norms"] = prime_norms
    return report


def eigen_report(F, cs, th, N, seed):
    """Constituents at level N, and the norms of the Hecke primes used."""
    w = parallel_weight_two(F)
    sp = build_space(cs, N, w, seed=seed)
    level_primes = [q for q, _ in N.factor()]
    blocks = [
        hecke_operator(cs, th, sp, pr)
        for pr in th.primes
        if pr.ideal not in level_primes
    ]
    rep = build_report(F, N, w, blocks)
    constituents = [
        {
            "dim": c.dimension,
            "eisenstein": c.eisenstein,
            "factors": [[poly_str(g), e] for g, e in c.factors],
        }
        for c in rep.constituents
    ]
    return constituents, [b.prime.norm for b in blocks]


def poly_str(g):
    """A polynomial as written by hand, highest degree first: "x^2-8"."""
    out = ""
    for i in range(g.degree, -1, -1):
        c = g.coeffs[i]
        if c == 0:
            continue
        mag = "" if abs(c) == 1 and i else str(abs(c))
        var = "" if i == 0 else "x" if i == 1 else f"x^{i}"
        sep = "*" if mag and var else ""
        sign = "-" if c < 0 else "+" if out else ""
        out += sign + mag + sep + var
    return out or "0"

