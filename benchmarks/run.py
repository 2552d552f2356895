"""quatforms benchmark: time to a checked Hecke report, per workload.

Usage (from the repository root):
  python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh single-threaded interpreter
(benchmarks/worker.py), one at a time, and its serialized report is
compared byte for byte with the serialized report of
benchmarks/expected/NAME.json.  A repetition fails if it raises or if its
report differs, so every report of a workload is byte-identical.

--trace 0 repeats the timed pass at least MIN_REPS times, and then while
the next repetition is predicted to fit in --seconds, and prints the
end-to-end metrics as medians.
--trace 1 runs one timed, one traced and one profiled repetition and
prints the per-layer metrics, the trace overhead and the Fraction share.

The last line of standard output is the result JSON.  The line before it
records the host.  Full records, spans and the per-layer counts of the
last traced run of each workload and source tree go to benchmarks/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
OUT = HERE / "out"

# a single repetition varies by up to 20% with the host's load
MIN_REPS = 2
# a run must end within 180 s; a repetition still running then is killed
RUN_DEADLINE_S = 175
# stage spans must cover this share of the traced wall time
MIN_STAGE_COVERAGE = 0.97


def call_worker(workload, seed, mode, deadline, spans=None):
    """Run one repetition in a fresh interpreter; its record, or an error.

    deadline is a time.perf_counter() value at which the worker is killed.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        return {"error": f"worker killed at the {RUN_DEADLINE_S} s run deadline"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else {
            "error": f"worker exited with code {proc.returncode}"}
    except json.JSONDecodeError:
        return {"error": "worker printed no result line"}


def serialize(report):
    """Canonical JSON text of a report: the form compared byte for byte."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def check(rec, expected):
    """Record a failure when the repetition raised or its report differs."""
    if rec["error"] is None and rec["report"] != serialize(expected):
        rec["error"] = "report differs from the expected file"
    return rec


def timed_pass(workload, seed, seconds, expected):
    """Timed repetitions, seeds seed, seed+1, ...: at least MIN_REPS, then
    while the next one is predicted to fit in `seconds`.  Stops at the
    first failed repetition."""
    recs = []
    start = time.perf_counter()
    while True:
        rec = call_worker(workload, seed + len(recs), "plain", start + RUN_DEADLINE_S)
        recs.append(check(rec, expected))
        if rec["error"] is not None:
            return recs
        elapsed = time.perf_counter() - start
        if len(recs) >= MIN_REPS and elapsed + elapsed / len(recs) > seconds:
            return recs


def end_to_end(recs):
    done = [r for r in recs if "time_to_report_s" in r]
    if not done:
        return {}
    setups = [t for r in done for t in r["setup_s"]]
    return {
        "time_to_report_s": (statistics.median(r["time_to_report_s"] for r in done), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
    }


def traced_pass(workload, seed, expected, out_dir):
    """One timed, one traced and one profiled repetition, and the checks
    on the traced one; returns (records, per-layer metrics)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    plain = check(call_worker(workload, seed, "plain", deadline), expected)
    spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    traced = check(call_worker(workload, seed, "trace", deadline, spans), expected)
    prof = check(call_worker(workload, seed, "profile", deadline), expected)
    recs = [plain, traced, prof]
    if traced["error"] is not None:
        return recs, {}
    values = traced["layers"]
    classes = json.loads(traced["report"])["classes"]
    if values["classset.theta.entries"] != classes * traced["counts"]["classset.theta.degree_sum"]:
        traced["error"] = "theta entries differ from h * sum(Np + 1)"
    elif not MIN_STAGE_COVERAGE <= values["stage.coverage"] <= 1:
        traced["error"] = f"stage spans cover {values['stage.coverage']:.4f} of the wall time"
    elif not same_counts(out_dir / f"{workload}.{source_digest()}.counts.json",
                         traced["counts"]):
        traced["error"] = "per-layer counts differ from the previous traced run"
    values["trace.time_to_report_s"] = traced["time_to_report_s"]
    if plain["error"] is None:
        values["trace.overhead_s"] = traced["time_to_report_s"] - plain["time_to_report_s"]
    if prof["error"] is None:
        values["fractions.self_share"] = prof["fractions_self_share"]
    units = traced["units"]
    return recs, {k: (v, units[k]) for k, v in values.items()}


def source_digest():
    """Short hash of the package sources, so counts compare like with like."""
    h = hashlib.sha256()
    for path in sorted((SRC / "quatforms").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def same_counts(path, counts):
    """Compare with the counts stored by the last traced run, then store."""
    if path.exists() and json.loads(path.read_text()) != counts:
        return False
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def host():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def measure(workload, seed, seconds, trace, out_dir=OUT):
    """Run the benchmark once; returns the full record with its result."""
    expected = json.loads((EXPECTED / f"{workload}.json").read_text())["report"]
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        recs, metrics = traced_pass(workload, seed, expected, out_dir)
    else:
        recs = timed_pass(workload, seed, seconds, expected)
        metrics = end_to_end(recs)
    failed = sum(r["error"] is not None for r in recs)
    result = {
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"workload": workload, "seed": seed, "trace": trace, "host": host(),
            "repetitions": recs, "result": result}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(p.stem for p in EXPECTED.glob("*.json")))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "quatforms" / "__init__.py").is_file():
        print(f"no quatforms sources under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"host": record["host"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
