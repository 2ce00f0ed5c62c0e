import copy
import json

import pytest

from perfbench import check, metrics
from perfbench.tests.conftest import ROOT


@pytest.fixture
def doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_committed_file_passes_schema_and_code_checks(doc):
    assert check.validate(doc, len((ROOT / "BENCHMARK.json").read_bytes())) == []
    assert check.validate_against_code(doc) == []


def _with(doc, mutate):
    changed = copy.deepcopy(doc)
    mutate(changed)
    return changed


def _metric(doc, name):
    return next(m for m in doc["end_to_end"] + doc["per_layer"] if m["name"] == name)


MUTATIONS = {
    "bad name charset": (lambda d: d["workloads"][0].update(name="round 5k!"), "name"),
    "name used twice": (lambda d: d["per_layer"][1].update(name="round.wall_s"), "used twice"),
    "too few workloads": (lambda d: d.update(workloads=d["workloads"][:1]), "2 to 8"),
    "too many workloads": (
        lambda d: d.update(workloads=[{"name": f"w{i}", "why": "x"} for i in range(9)]),
        "2 to 8",
    ),
    "too many end-to-end": (
        lambda d: d["end_to_end"].extend(
            {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1} for i in range(20)
        ),
        "1 to 16",
    ),
    "too many per-layer": (
        lambda d: d["per_layer"].extend(
            {"name": f"l{i}", "unit": "s", "better": "lower"} for i in range(110)
        ),
        "1 to 128",
    ),
    "missing bound": (lambda d: d["end_to_end"][1].pop("bound"), "exactly the keys"),
    "bound too wide": (lambda d: d["end_to_end"][1].update(bound=0.3), "bound"),
    "no direction": (lambda d: d["end_to_end"][1].update(better="up"), "better"),
    "bad unit": (lambda d: d["per_layer"][0].update(unit="seconds per round"), "unit"),
    "no setup_s": (lambda d: d["end_to_end"].pop(0), "setup_s"),
    "setup_s not widest": (lambda d: d["end_to_end"][0].update(bound=0.01), "largest"),
    "absolute command": (lambda d: d["command"].append("/usr/bin/x"), "absolute"),
    "path escapes": (lambda d: d.update(paths=["../elsewhere"]), "paths"),
    "run_seconds too long": (lambda d: d.update(run_seconds=61), "run_seconds"),
    "over the time budget": (lambda d: d.update(run_seconds=60), "budget"),
    "extra top-level key": (lambda d: d.update(extra=1), "top level"),
    "multi-line why": (lambda d: d["workloads"][0].update(why="a\nb"), "why"),
}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_schema_violations_are_reported(doc, case):
    mutate, expected = MUTATIONS[case]
    errors = check.validate(_with(doc, mutate))
    assert any(expected in error for error in errors), errors


def test_oversized_file_is_reported(doc):
    assert any("bytes" in error for error in check.validate(doc, 70 * 1024))


def test_per_layer_map_must_name_existing_metrics_and_workloads(doc, monkeypatch):
    layer_map = dict(metrics.LAYER_MAP)
    layer_map["kernel.self_s"] = (("latency_p50_yardsticks", "no-such-workload"),)
    monkeypatch.setattr(metrics, "LAYER_MAP", layer_map)
    errors = check.validate_against_code(doc)
    assert any("no-such-workload" in error for error in errors), errors


def test_file_and_code_must_list_the_same_metrics(doc):
    changed = _with(doc, lambda d: d["per_layer"].pop())
    errors = check.validate_against_code(changed)
    assert any(error.startswith("per_layer") for error in errors), errors
    assert _metric(doc, "setup_s")["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_cli_exit_codes(tmp_path, doc):
    assert check.main([str(ROOT / "BENCHMARK.json")]) == 0
    broken = tmp_path / "BENCHMARK.json"
    broken.write_text(json.dumps(_with(doc, lambda d: d.update(run_seconds=0))))
    assert check.main([str(broken)]) == 1
