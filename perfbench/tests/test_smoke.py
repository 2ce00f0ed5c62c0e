"""Every workload at a few dozen nodes, untraced and traced."""

import itertools
import json
import random

import pytest

from perfbench import run, workloads
from perfbench.metrics import END_TO_END, layer_sum_ratio
from perfbench.tests.conftest import ROOT
from perfbench.workloads import WORKLOADS, answer_bounds

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_correct_and_tracing_is_transparent(name):
    plain = run.run_workload(name, seed=3, seconds=0.2, trace=False, tiny=True)
    result = plain["result"]
    assert plain["errors"] == [] and result["correct"]
    assert result["attempted"] >= workloads.MIN_OPS and result["failed"] == 0
    assert list(result["metrics"]) == list(END_TO_END)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert all(value > 0 for value in result["metrics"].values()), result["metrics"]

    # The traced run re-checks its first operation against an untraced
    # one with the same seed and reports any difference as an error.
    traced = run.run_workload(name, seed=3, seconds=0.2, trace=True, tiny=True)
    assert traced["errors"] == [] and traced["result"]["correct"]
    layers = traced["result"]["metrics"]
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    assert layer_sum_ratio(layers) == pytest.approx(1.0, abs=0.05)
    assert layers["trace.layer_sum_ratio"] == pytest.approx(1.0, abs=0.05)
    assert traced["tracer"].spans_named("round")


def test_a_traced_run_that_differs_is_reported(monkeypatch):
    workload = WORKLOADS["round-1k-des"]

    def skewed(name, spec, seed, seconds, tracer=None, min_ops=workloads.MIN_OPS):
        out = workload.run(name, spec, seed, seconds, tracer, min_ops)
        if tracer is not None:
            out.signature = ("perturbed",)
        return out

    patched = dict(WORKLOADS)
    patched["round-1k-des"] = workloads.Workload(
        workload.name, skewed, workload.spec, workload.tiny
    )
    monkeypatch.setattr(workloads, "WORKLOADS", patched)
    traced = run.run_workload("round-1k-des", seed=3, seconds=0.0, trace=True, tiny=True)
    assert not traced["result"]["correct"]
    assert any("traced run differs" in error for error in traced["errors"])


@pytest.mark.parametrize("kind", ["sum", "avg", "var", "max", "min"])
def test_answer_bounds_hold_every_subset_of_that_size(kind):
    from repro.service.queries import build_batch_aggregate

    rng = random.Random(11)
    readings = [rng.uniform(10.0, 30.0) for _ in range(8)]
    part = build_batch_aggregate([kind], workloads.SCALE)[0].parts[0]
    low, high = answer_bounds(kind, readings, 3)
    assert low <= high
    for subset in itertools.combinations(readings, 3):
        assert low - 1e-9 <= part.true_value(subset) <= high + 1e-9


def test_answer_bounds_of_a_sum_are_the_extreme_subsets():
    assert answer_bounds("sum", [1.0, 2.0, 3.0, 4.0], 2) == (3.0, 7.0)
    assert answer_bounds("avg", [1.0, 2.0, 3.0, 4.0], 2) == (1.5, 3.5)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "BENCHMARK", tmp_path / "BENCHMARK.json")
    assert run.main(["--workload", "round-1k-des", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
