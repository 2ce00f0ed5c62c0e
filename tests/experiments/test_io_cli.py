"""Tests for result persistence and the CLI runner."""

import dataclasses
import json
import pathlib

import pytest

from repro.errors import ReproError
from repro.experiments.cli import _registry, main
from repro.experiments.engine import CellSpec, ExperimentSpec
from repro.experiments.io import SCHEMA_VERSION, save_rows


#: Experiments whose cells build no protocol instance (T1 only deploys).
_BUILDS_NO_PROTOCOL = {"T1"}


def load_rows(path):
    """Read a saved artifact back as its full document: the reader the
    artifact format promises (strict JSON, with the bare NaN/Infinity
    tokens of legacy artifacts read as ``null``)."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ReproError(f"no results artifact at {path}")
    document = json.loads(path.read_text(), parse_constant=lambda token: None)
    if document.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"artifact schema {document.get('schema')} != {SCHEMA_VERSION}"
        )
    for key in ("experiment", "rows"):
        if key not in document:
            raise ReproError(f"artifact at {path} missing {key!r}")
    return document


def _rows_cell(params, seed, context):
    return {"v": params["v"]}


def _rows_spec(experiment, value):
    """A one-cell spec yielding ``[{"v": value}]`` — the CLI-test stub."""
    return ExperimentSpec(
        experiment,
        _rows_cell,
        (CellSpec({"v": value}, 0),),
        lambda outcomes: [o.value for o in outcomes],
    )


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        rows = [{"nodes": 100, "accuracy": 0.95}, {"nodes": 200, "accuracy": 0.97}]
        path = save_rows(
            tmp_path / "x.json", "F4", rows, parameters={"trials": 3}
        )
        document = load_rows(path)
        assert document["experiment"] == "F4"
        assert document["rows"] == rows
        assert document["parameters"] == {"trials": 3}
        assert "library_version" in document

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_rows(tmp_path / "nope.json")

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "experiment": "x", "rows": []}))
        with pytest.raises(ReproError):
            load_rows(path)

    def test_unserializable_rows_raise(self, tmp_path):
        with pytest.raises(ReproError):
            save_rows(tmp_path / "x.json", "F4", [{"bad": object()}])

    def test_creates_parent_dirs(self, tmp_path):
        path = save_rows(tmp_path / "deep" / "nested" / "x.json", "T1", [])
        assert path.exists()

    def test_nan_rows_roundtrip_as_strict_json(self, tmp_path):
        """NaN/Infinity metrics must not poison the artifact: the saved
        file is strict JSON (no bare NaN tokens) and reloads with the
        non-finite values encoded as null."""
        rows = [
            {"nodes": 100, "ratio": float("nan")},
            {"nodes": 200, "ratio": float("inf"), "neg": float("-inf")},
        ]
        path = save_rows(tmp_path / "x.json", "F6", rows)
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        # A strict parser (json.loads is lenient by default — forbid the
        # constants explicitly, as jq would) accepts the artifact.
        def _reject(token):
            raise AssertionError(f"non-strict token {token!r}")

        document = json.loads(text, parse_constant=_reject)
        assert document["rows"] == [
            {"nodes": 100, "ratio": None},
            {"nodes": 200, "ratio": None, "neg": None},
        ]

    def test_legacy_nan_artifact_still_loads(self, tmp_path):
        """Artifacts written before the strict encoding (bare NaN
        tokens) load with NaN read as null."""
        path = tmp_path / "old.json"
        path.write_text(
            '{"schema": 1, "experiment": "F6", "rows": [{"ratio": NaN}]}'
        )
        document = load_rows(path)
        assert document["rows"] == [{"ratio": None}]


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("T1", "F4", "A3"):
            assert exp_id in out

    def test_unknown_experiment_exits_two(self, capsys):
        assert main(["run", "ZZ"]) == 2

    def test_quick_run_t1(self, tmp_path, capsys):
        assert main(["run", "T1", "--quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mean_degree" in out
        assert (tmp_path / "t1.json").exists()

    def test_quick_run_t2(self, tmp_path, capsys):
        assert main(["run", "T2", "--quick", "--out", str(tmp_path)]) == 0
        rows = load_rows(tmp_path / "t2.json")["rows"]
        assert [row["aggregate"] for row in rows] == [
            "sum",
            "count",
            "average",
            "variance",
        ]
        assert all(row["verdict"] == "accepted" for row in rows)

    def test_engine_flag_reaches_cell_config(self, tmp_path, capsys, monkeypatch):
        """--engine batched and --engine scalar both run green, and the
        choice reaches the IcpdaConfig each cell reads from the spec
        context."""
        import repro.experiments.cli as cli

        seen = []
        real_execute = cli.execute

        def spying_execute(spec, **kwargs):
            def cell(params, seed, context):
                seen.append(context["config"].engine)
                return spec.cell(params, seed, context)

            return real_execute(dataclasses.replace(spec, cell=cell), **kwargs)

        monkeypatch.setattr(cli, "execute", spying_execute)
        for engine in ("batched", "scalar"):
            argv = ["run", "F1", "--quick", "--engine", engine, "--out", str(tmp_path)]
            assert main(argv) == 0
            capsys.readouterr()
            assert seen and set(seen) == {engine}
            seen.clear()

    @pytest.mark.parametrize("exp_id", sorted(_registry()))
    def test_engine_flag_reaches_every_protocol(self, exp_id, capsys, monkeypatch):
        """Under --engine batched, every IcpdaProtocol an experiment
        builds runs the batched engine: a cell that builds its own
        IcpdaConfig instead of deriving it from the spec context would
        silently run scalar. The spy stops each cell at its first
        protocol, so the run is quick (and reports failed cells)."""
        from repro.core.protocol import IcpdaProtocol

        class Built(Exception):
            pass

        seen = []

        def spy(self, deployment, config, *args, **kwargs):
            seen.append(config.engine)
            raise Built

        monkeypatch.setattr(IcpdaProtocol, "__init__", spy)
        main(["run", exp_id, "--quick", "--engine", "batched"])
        capsys.readouterr()
        assert set(seen) <= {"batched"}
        assert bool(seen) == (exp_id not in _BUILDS_NO_PROTOCOL)

    def test_run_all_executes_every_entry(
        self, tmp_path, capsys, monkeypatch
    ):
        """run-all iterates the whole registry and saves one artifact
        plus one manifest per experiment (registry stubbed to keep the
        test fast)."""
        import repro.experiments.cli as cli

        fake = {
            "X1": ("first", lambda: _rows_spec("X1", 1), lambda: _rows_spec("X1", 1)),
            "X2": ("second", lambda: _rows_spec("X2", 2), lambda: _rows_spec("X2", 2)),
        }
        monkeypatch.setattr(cli, "_registry", lambda: fake)
        assert cli.main(["run-all", "--quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "=== X1 ===" in out and "=== X2 ===" in out
        assert (tmp_path / "x1.json").exists()
        assert (tmp_path / "x2.json").exists()
        manifest = json.loads((tmp_path / "x1.manifest.json").read_text())
        assert manifest["cells_total"] == 1
        assert manifest["cells_failed"] == 0

    def test_run_all_continues_past_failures_and_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        """One raising experiment must not abort the batch, and the
        batch must exit nonzero with a failure summary."""
        import repro.experiments.cli as cli

        def boom():
            raise RuntimeError("spec construction exploded")

        fake = {
            "X1": ("bad", boom, boom),
            "X2": ("good", lambda: _rows_spec("X2", 2), lambda: _rows_spec("X2", 2)),
        }
        monkeypatch.setattr(cli, "_registry", lambda: fake)
        assert cli.main(["run-all", "--quick", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "FAILED experiments" in err
        assert "X1" in err
        # X2 still ran and persisted.
        assert (tmp_path / "x2.json").exists()

    def test_run_all_rejects_unknown_flags(self):
        with pytest.raises(SystemExit):
            main(["run-all", "--bogus-flag"])

    @pytest.mark.parametrize(
        "flags",
        [["--jobs", "2"], ["--timeout", "5"], ["--resume"], ["--cache-dir", "c"]],
    )
    def test_removed_runner_flags_are_rejected(self, flags, capsys):
        for command in (["run", "T1"], ["run-all"]):
            with pytest.raises(SystemExit) as exit_info:
                main([*command, "--quick", *flags])
            assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_leaves_only_artifacts_in_out_dir(self, tmp_path, capsys):
        assert main(["run", "T1", "--quick", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "t1.json",
            "t1.manifest.json",
        ]
