import json

import pytest

from perfbench.compare import compare, verdict
from perfbench.metrics import SELF_TIME_METRICS
from perfbench.tests.conftest import ROOT

STEADY = [10.0, 10.05, 9.95, 10.02, 9.98]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([v * 1.2 for v in STEADY], "lower", "REGRESSED"),
        ([v * 1.02 for v in STEADY], "lower", "unchanged"),
        ([v * 0.8 for v in STEADY], "lower", "improved"),
        ([v * 0.8 for v in STEADY], "higher", "REGRESSED"),
        ([v * 1.2 for v in STEADY], "higher", "improved"),
    ],
)
def test_medians_are_judged_against_the_bound(change, better, expected):
    assert verdict(STEADY, change, 0.1, better)[0] == expected


def test_noisy_runs_are_unresolved_not_unchanged():
    noisy = [6.0, 8.0, 10.0, 12.0, 14.0]
    assert verdict(STEADY, noisy, 0.1, "lower")[0] == "unresolved"


def test_noisy_runs_that_all_beat_every_base_run_are_improved():
    noisy = [5.0, 6.0, 7.0, 8.0, 9.0]
    assert verdict(STEADY, noisy, 0.1, "lower")[0] == "improved"


def test_relative_change_is_positive_when_worse():
    _, worse = verdict([10.0, 10.0], [11.0, 11.0], 0.2, "lower")
    assert worse == pytest.approx(0.1)


def _records(scale=1.0, layer_gap=0.0):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    for workload in spec["workloads"]:
        for seed, wobble in enumerate((0.999, 1.0, 1.001)):
            metrics = {
                m["name"]: {"value": 1.0 * wobble * scale, "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
            records.append(
                {"workload": workload["name"], "seed": seed, "trace": 0,
                 "result": {"metrics": metrics}}
            )
        layers = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["per_layer"]}
        layers["round.wall_s"]["value"] = float(len(SELF_TIME_METRICS)) + layer_gap
        records.append(
            {"workload": workload["name"], "seed": 0, "trace": 1,
             "result": {"metrics": layers}}
        )
    return records


def _write(path, records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path


def test_identical_sets_pass(tmp_path):
    base = _write(tmp_path / "a.jsonl", _records())
    lines, ok = compare(base, _write(tmp_path / "b.jsonl", _records()))
    assert ok, "\n".join(lines)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = len(spec["workloads"]) * len(spec["end_to_end"])
    assert sum("unchanged" in line for line in lines) == rows


def test_a_regression_fails_the_comparison(tmp_path):
    base = _write(tmp_path / "a.jsonl", _records())
    lines, ok = compare(base, _write(tmp_path / "b.jsonl", _records(scale=1.5)))
    assert not ok
    assert any("REGRESSED" in line for line in lines)


def test_layer_self_times_must_add_up_to_the_round(tmp_path):
    base = _write(tmp_path / "a.jsonl", _records())
    lines, ok = compare(base, _write(tmp_path / "b.jsonl", _records(layer_gap=2.0)))
    assert not ok
    assert any(line.startswith("LAYER SUM: change") for line in lines)
