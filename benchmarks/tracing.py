"""Spans and counters around the public quatforms functions, from outside.

installed() rebinds each target, and every other module-level binding of
the same function object, to a wrapper that records a span (id, name,
start, end, parent, run id) and counts calls.  Spans are kept in memory;
the caller writes them out once at the end.  A target that no longer
exists raises LookupError, so a rename cannot silently report zero.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from pipeline import STAGES, StageClock

PACKAGE = "quatforms"

# "<module>.<function>" or "<module>.<Class>.<method>", module relative
# to the package.  These name the layers of the per-layer metrics.
TARGETS = (
    "numberfield.field_from_spec",
    "numberfield.FieldCtx.narrowly_principal_generator",
    "quaternion.hilbert_ramification_free_algebra",
    "quaternion.maximalize",
    "quaternion.norm_equation_solutions",
    "quaternion.QuatLattice.left_order",
    "quaternion.QuatLattice.right_order",
    "quaternion.QuatLattice.compose",
    "classset.compute_class_set",
    "classset.unit_group",
    "classset.compute_theta",
    "classset.neighbors",
    "classset.is_isomorphic",
    "classset.split_residue_matrix",
    "latticetools.lll_gram",
    "latticetools.fincke_pohst",
    "latticetools.enumerate_norm",
    "heckespace.build_splitting",
    "heckespace.build_space",
    "heckespace.hecke_operator",
    "heckespace.dimension_report",
    "eigen.decompose",
    "eigen.flag_eisenstein",
    "eigen.build_report",
    "polynomials.factor_poly",
    "matrices.Matrix.charpoly",
)

# counts read off a target's return value, by full metric name
OBSERVERS = {
    "classset.unit_group": lambda r: {"classset.unit_group.elements": r.order},
    "classset.compute_theta": lambda r: {
        "classset.theta.entries": sum(len(v) for v in r.entries.values()),
        "classset.theta.degree_sum": sum(p.norm + 1 for p in r.primes),
    },
    "classset.neighbors": lambda r: {"classset.neighbors.lattices": len(r)},
    "classset.is_isomorphic": lambda r: {"classset.is_isomorphic.hits": r is not None},
    "quaternion.norm_equation_solutions": lambda r: {
        "quaternion.norm_equation_solutions.nonempty": bool(r),
    },
    "latticetools.enumerate_norm": lambda r: {
        "latticetools.enumerate_norm.shell": len(r.vectors),
    },
    "heckespace.build_space": lambda r: {"heckespace.build_space.dim": r.dim},
}

# (metric, numerator count, denominator count)
RATIOS = (
    ("classset.is_isomorphic.hit_ratio",
     "classset.is_isomorphic.hits", "classset.is_isomorphic.calls"),
    ("quaternion.norm_equation_solutions.nonempty_ratio",
     "quaternion.norm_equation_solutions.nonempty",
     "quaternion.norm_equation_solutions.calls"),
    # vectors on the shell over the enumeration nodes enumerate_norm drew
    ("latticetools.enumerate_norm.hit_ratio",
     "latticetools.enumerate_norm.shell", "latticetools.enumerate_norm.nodes"),
)

# counts reported as metrics besides the calls of every target
COUNTS = (
    "classset.unit_group.elements",
    "classset.theta.entries",
    "classset.neighbors.lattices",
    "classset.is_isomorphic.hits",
    "latticetools.fincke_pohst.nodes",
    "heckespace.build_space.dim",
)

# filled in by run.py from its untraced and profiled repetitions
RUN_METRICS = (
    ("trace.time_to_report_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("fractions.self_share", "ratio", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for t in TARGETS:
        out += [(f"{t}.calls", "count", "lower"),
                (f"{t}.s", "s", "lower"),
                (f"{t}.self_s", "s", "lower")]
    out += [(c, "count", "higher") for c in COUNTS]
    out += [(r, "ratio", "higher") for r, _, _ in RATIOS]
    out += [(f"stage.{s}.s", "s", "lower") for s in STAGES]
    out.append(("stage.coverage", "ratio", "higher"))
    out += list(RUN_METRICS)
    return out


class Tracer(StageClock):
    """Span and count recorder; its stages are spans named stage.<name>."""

    def __init__(self, run_id):
        super().__init__()
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent id, outermost of its name)
        self.counts = Counter()
        self._open = []  # (id, name) of the open spans, innermost last
        self._depth = Counter()
        self._next_id = 0

    def _enter(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else None
        outer = self._depth[name] == 0
        self._depth[name] += 1
        self._open.append((sid, name))
        return sid, parent, outer

    def _exit(self, name, sid, parent, outer, t0, t1):
        self._open.pop()
        self._depth[name] -= 1
        self.spans.append((sid, name, t0, t1, parent, outer))

    @contextmanager
    def stage(self, name):
        span = self._enter("stage." + name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._exit("stage." + name, *span, t0, t1)
            self.times[name] = t1 - t0

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            span = self._enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, *span, t0, time.perf_counter())
            if observe is not None:
                self.counts.update(observe(result))
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        """Each resumption is a span; each yielded item is one node.

        Nodes are also counted for the span that created the generator,
        as <caller>.nodes.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            caller = self._open[-1][1] if self._open else "top"
            return self._resume(name, caller, fn(*args, **kwargs))

        return wrapper

    def _resume(self, name, caller, gen):
        try:
            while True:
                span = self._enter(name)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(name, *span, t0, time.perf_counter())
                self.counts[name + ".nodes"] += 1
                self.counts[caller + ".nodes"] += 1
                yield item
        finally:
            gen.close()

    def metrics(self):
        """Per-layer metrics from the recorded spans and counts.

        s sums the outermost spans of a name; self_s sums every span of
        the name minus the time its child spans cover.
        """
        child_time = Counter()
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        total = Counter()
        own = Counter()
        for sid, name, t0, t1, _, outer in self.spans:
            if outer:
                total[name] += t1 - t0
            own[name] += t1 - t0 - child_time[sid]
        out = {}
        for t in TARGETS:
            out[f"{t}.calls"] = self.counts[f"{t}.calls"]
            out[f"{t}.s"] = total[t]
            out[f"{t}.self_s"] = own[t]
        for c in COUNTS:
            out[c] = self.counts[c]
        for r, num, den in RATIOS:
            out[r] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        for s, v in self.times.items():
            out[f"stage.{s}.s"] = v
        return out

    def write_spans(self, path):
        """One JSON line per span: run, id, name, start, end, parent."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, _ in sorted(self.spans):
                fh.write(json.dumps([self.run_id, sid, name, t0, t1, parent]) + "\n")


def _resolve(target):
    """(owner, attribute, function) for a target, or LookupError."""
    modname, _, qual = target.partition(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{modname}")
    except ImportError as exc:
        raise LookupError(f"trace target {target}: no module {modname}") from exc
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if not inspect.isclass(owner):
            raise LookupError(f"trace target {target}: no class {part}")
    fn = vars(owner).get(attr)
    if not inspect.isfunction(fn):
        raise LookupError(f"trace target {target} is not a function")
    return owner, attr, fn


@contextmanager
def installed(tracer, targets=TARGETS):
    """Wrap every target for the duration of the block, then restore.

    A module-level function is rebound in every loaded module that
    imported it, so callers in other modules are traced too.
    """
    resolved = [(t, *_resolve(t)) for t in targets]
    restore = []
    try:
        for target, owner, attr, fn in resolved:
            make = tracer.wrap_generator if inspect.isgeneratorfunction(fn) else tracer.wrap
            wrapper = make(target, fn)
            owners = [(owner, attr)]
            if inspect.ismodule(owner):
                owners = [
                    (mod, name)
                    for mod in list(sys.modules.values())
                    for name, val in list(getattr(mod, "__dict__", {}).items())
                    if val is fn
                ]
            for own, name in owners:
                setattr(own, name, wrapper)
                restore.append((own, name, fn))
        yield tracer
    finally:
        for own, name, fn in reversed(restore):
            setattr(own, name, fn)
