"""Tests of the benchmark itself, at n = SMOKE_N; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import time

import pytest

import run

SMOKE = run.workloads(smoke=True)


def test_expected_values_are_computed_independently():
    assert run.triangles(3) == 13  # the C11 counterexample
    assert run.edge_count(12) == 8120840
    assert run.edge_count(3) == 15


@pytest.mark.parametrize("name", list(SMOKE))
def test_traced_and_untraced_outputs_are_byte_identical(name, tmp_path):
    deadline = time.monotonic() + 60
    plain = run.run_op(SMOKE[name], False, tmp_path, deadline)
    traced = run.run_op(SMOKE[name], True, tmp_path, deadline)
    assert plain.problems == [] and traced.problems == []
    assert plain.digest == traced.digest
    assert traced.result["spans"] and "spans" not in plain.result


@pytest.mark.parametrize("name", list(SMOKE))
def test_traced_run_reports_every_per_layer_metric(name):
    result = run.run_workload(SMOKE[name], 0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.run_workload(SMOKE["verify_n12"], 0, trace=False)
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_speed_factor_scales_to_the_nominal_reference_chunk():
    nominal = run.REF_NOMINAL_S
    assert run.speed([nominal, nominal]) == pytest.approx(1.0)
    # A host twice as slow before and after the call halves the factor.
    assert run.speed([2 * nominal, 2 * nominal]) == pytest.approx(0.5)
    assert run.speed([nominal, 3 * nominal]) == pytest.approx(0.5)


def test_every_operation_and_setup_probe_samples_the_host_speed(tmp_path):
    op = run.run_op(SMOKE["verify_n12"], False, tmp_path, time.monotonic() + 60)
    assert op.problems == [] and len(op.result["ref_s"]) == 2 and op.speed > 0
    seconds, speed = run.setup_seconds(tmp_path, time.monotonic() + 60)
    assert 0 < seconds < 60 and speed > 0


def test_wrong_output_is_counted_as_a_failure_not_raised(monkeypatch):
    w = SMOKE["census_n13"]
    monkeypatch.setitem(run.PINNED_TRIANGLES, w.n, run.triangles(w.n) + 1)
    result = run.run_workload(w, 0, trace=False)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 1
    assert result["metrics"] == {}


def test_operation_past_the_run_limit_is_killed_and_counted(tmp_path):
    op = run.run_op(SMOKE["verify_n12"], False, tmp_path, deadline=time.monotonic())
    assert op.problems and "killed" in op.problems[0]


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == run.SUFFIX_UNITS[m["name"].rsplit(".", 1)[1]]
