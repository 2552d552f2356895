"""Tests of the benchmark itself, on the tiny_q5 input (quad:5, level 1, bound 4).

Run from the repository root: python3 -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pipeline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def names(section):
    return {m["name"] for m in SPEC[section]}


def test_workloads_and_metric_lists_agree():
    expected = {p.stem for p in run.EXPECTED.glob("*.json")}
    assert expected == set(pipeline.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} < expected
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == tracing.per_layer_metrics()


def test_every_named_metric_is_emitted(tmp_path):
    plain = run.measure("tiny_q5", 0, 0, False, tmp_path)["result"]
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] == run.MIN_REPS
    assert set(plain["metrics"]) == names("end_to_end")

    traced = run.measure("tiny_q5", 0, 0, True, tmp_path)["result"]
    assert traced["correct"] and traced["attempted"] == 3
    assert set(traced["metrics"]) == names("per_layer")
    assert traced["metrics"]["classset.theta.entries"]["value"] == 5
    assert (tmp_path / "spans-tiny_q5-seed0.jsonl").stat().st_size > 0

    # a second traced run must repeat the stored counts exactly
    (stored,) = tmp_path.glob("tiny_q5.*.counts.json")
    counts = json.loads(stored.read_text())
    counts["classset.is_isomorphic.calls"] += 1
    stored.write_text(json.dumps(counts))
    again = run.measure("tiny_q5", 1, 0, True, tmp_path)["result"]
    assert not again["correct"] and again["failed"] == 1


def test_corrupted_expected_value_is_a_failed_run(tmp_path, monkeypatch):
    doc = json.loads((run.EXPECTED / "tiny_q5.json").read_text())
    doc["report"]["constituents"][0]["factors"][0][0] = "x-6"
    (tmp_path / "tiny_q5.json").write_text(json.dumps(doc))
    monkeypatch.setattr(run, "EXPECTED", tmp_path)
    result = run.measure("tiny_q5", 0, 0, False, tmp_path)["result"]
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 1
    assert set(result["metrics"]) == names("end_to_end")


@pytest.mark.parametrize("target", [
    "classset.no_such_function",
    "quaternion.NoSuchClass.left_order",
    "quaternion.QuatLattice.no_such_method",
    "no_such_module.f",
])
def test_missing_wrapper_target_raises(target):
    with pytest.raises(LookupError, match="trace target"):
        with tracing.installed(tracing.Tracer("t"), targets=(target,)):
            pass


def test_wrappers_rebind_every_binding_and_restore():
    from quatforms import classset, eigen, heckespace, polynomials, quaternion

    originals = (quaternion.norm_equation_solutions, eigen.decompose,
                 eigen.factor_poly, classset.split_residue_matrix)
    with tracing.installed(tracing.Tracer("t")):
        assert classset.norm_equation_solutions is quaternion.norm_equation_solutions
        assert heckespace.decompose is eigen.decompose
        assert heckespace.flag_eisenstein is eigen.flag_eisenstein
        assert eigen.factor_poly is polynomials.factor_poly
        assert heckespace.split_residue_matrix is classset.split_residue_matrix
        assert quaternion.norm_equation_solutions is not originals[0]
        assert pipeline.compute_theta is classset.compute_theta
    assert (quaternion.norm_equation_solutions, eigen.decompose,
            eigen.factor_poly, classset.split_residue_matrix) == originals
    assert classset.norm_equation_solutions is originals[0]


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer("t")
    theta, iso = "classset.compute_theta", "classset.is_isomorphic"
    tr.spans = [  # (id, name, start, end, parent, outermost of its name)
        (0, theta, 0.0, 10.0, None, True),
        (1, iso, 2.0, 5.0, 0, True),
        (2, iso, 2.5, 3.0, 1, False),
        (3, iso, 6.0, 7.0, 0, True),
    ]
    m = tr.metrics()
    assert m[f"{theta}.s"] == 10.0 and m[f"{theta}.self_s"] == 6.0
    assert m[f"{iso}.s"] == 4.0 and m[f"{iso}.self_s"] == 4.0


def test_poly_str_matches_hand_notation():
    from quatforms.polynomials import Poly

    assert pipeline.poly_str(Poly([-8, 0, 1])) == "x^2-8"
    assert pipeline.poly_str(Poly([3, 1])) == "x+3"
    assert pipeline.poly_str(Poly([-3, -1, 1])) == "x^2-x-3"
    assert pipeline.poly_str(Poly([1, 3, 1])) == "x^2+3*x+1"
