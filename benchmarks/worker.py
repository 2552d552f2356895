"""One benchmark repetition in a fresh interpreter; prints one JSON line.

Modes:
  plain    the timed pass: no wrappers, stage clocks only
  trace    every trace target wrapped; per-layer metrics and spans
  profile  cProfile around the theta stage only, for the Fraction share

Usage: python3 benchmarks/worker.py --workload NAME --seed N --mode MODE
       [--spans PATH]
"""

import argparse
import cProfile
import json
import pstats
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import pipeline
from run import serialize

# extra set-ups timed after the report in plain mode, for a steadier setup_s
SETUP_REPEATS = 2


class ProfileClock(pipeline.StageClock):
    """Stage clock that profiles the theta stage."""

    def __init__(self):
        super().__init__()
        self.profile = cProfile.Profile()

    @contextmanager
    def stage(self, name):
        with super().stage(name):
            if name != "theta":
                yield
                return
            self.profile.enable()
            try:
                yield
            finally:
                self.profile.disable()

    def fractions_self_share(self):
        """Share of the theta stage's self time spent in fractions.py."""
        stats = pstats.Stats(self.profile).stats
        total = sum(row[2] for row in stats.values())
        frac = sum(row[2] for key, row in stats.items() if key[0].endswith("fractions.py"))
        return frac / total if total else 0.0


def repeat_setup(spec, times):
    """Wall times of `times` further set-ups of the same field."""
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        pipeline.setup(spec)
        out.append(time.perf_counter() - t0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "profile"), required=True)
    ap.add_argument("--spans", help="file the trace mode writes its spans to")
    args = ap.parse_args(argv)
    wl = pipeline.WORKLOADS[args.workload]

    if args.mode == "trace":
        import tracing

        clock = tracing.Tracer(f"{args.workload}/seed{args.seed}")
        ctx = tracing.installed(clock)
    else:
        clock = ProfileClock() if args.mode == "profile" else pipeline.StageClock()
        ctx = nullcontext()

    out = {"error": None}
    try:
        with ctx:
            t0 = time.perf_counter()
            report = pipeline.run(wl, args.seed, clock)
            text = serialize(report)
            wall = time.perf_counter() - t0
    except Exception as exc:  # a failed repetition is reported, not raised
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(out))
        return 0

    out.update(report=text, time_to_report_s=wall, stages=clock.times)
    repeats = SETUP_REPEATS if args.mode == "plain" else 0
    out["setup_s"] = [clock.times["setup"]] + repeat_setup(wl.field, repeats)
    if args.mode == "trace":
        layers = clock.metrics()
        layers["stage.coverage"] = sum(clock.times.values()) / wall
        out["layers"] = layers
        out["units"] = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        out["counts"] = dict(clock.counts)
        if args.spans:
            clock.write_spans(args.spans)
    if args.mode == "profile":
        out["fractions_self_share"] = clock.fractions_self_share()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
