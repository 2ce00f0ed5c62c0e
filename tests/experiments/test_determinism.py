"""Repeated CLI runs must produce byte-identical artifacts.

A run-all over real (quick scale) experiments writes the same JSON rows
every time at the same seeds, including the failure row of an injected
crashing cell, which turns into exit code 1 rather than an abort.
"""

import dataclasses
import json

import pytest

import repro.experiments.cli as cli
from repro.experiments.coverage import coverage_spec
from repro.experiments.density import density_spec
from repro.experiments.engine import CellSpec


def _broken_coverage_spec():
    """Quick coverage spec with one injected failing cell.

    ``nodes: -5`` makes the deployment constructor raise; the reduce
    ignores the extra sweep point (-5 is not in ``sizes``), so the good
    rows are unchanged and the failure surfaces only as a failure row.
    """
    spec = coverage_spec(sizes=(120,), trials=1)
    bad = CellSpec({"nodes": -5, "trial": 0}, 1)
    return dataclasses.replace(spec, cells=spec.cells + (bad,))


FAKE_REGISTRY = {
    "D1": ("density quick", None, lambda: density_spec(sizes=(100,), trials=2)),
    "C1": ("coverage with crash", None, lambda: _broken_coverage_spec()),
}


@pytest.fixture
def fake_registry(monkeypatch):
    monkeypatch.setattr(cli, "_registry", lambda: dict(FAKE_REGISTRY))


def _artifacts(out_dir):
    """Map artifact name -> bytes, manifests excluded (they hold wall-clock)."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.glob("*.json"))
        if not p.name.endswith(".manifest.json")
    }


class TestCliDeterminism:
    def test_repeat_runs_write_identical_artifacts(self, tmp_path, fake_registry):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        assert cli.main(["run-all", "--quick", "--out", str(first_dir)]) == 1
        assert cli.main(["run-all", "--quick", "--out", str(second_dir)]) == 1

        first = _artifacts(first_dir)
        assert set(first) == {"d1.json", "c1.json"}
        assert first == _artifacts(second_dir)  # byte-identical artifacts

        # The injected crash produced exactly one failure row...
        rows = json.loads(first["c1.json"])["rows"]
        failure = [r for r in rows if "failed_cell" in r]
        assert len(failure) == 1
        assert json.loads(failure[0]["cell_params"]) == {"nodes": -5, "trial": 0}
        # ...and the good sweep point still produced its row.
        assert any(r.get("nodes") == 120 for r in rows)
