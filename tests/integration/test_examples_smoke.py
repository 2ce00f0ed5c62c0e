"""Smoke tests executing the example scripts.

Examples are the first thing a new user runs; these tests execute the
fast ones end-to-end (each asserts its own success criteria internally)
so they cannot rot silently.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, argv=None):
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "Verdict:        accepted" in out
        assert "OK:" in out

    def test_density_sweep_custom_sizes(self, capsys):
        run_example("density_sweep.py", argv=["120"])
        out = capsys.readouterr().out
        assert "iCPDA vs TAG" in out
        assert "120" in out

    def test_pollution_attack(self, capsys):
        run_example("pollution_attack.py")
        out = capsys.readouterr().out
        assert "isolated (102,) in 5 probes" in out
        assert "OK: pollution detected" in out

    def test_continuous_monitoring(self, capsys):
        run_example("continuous_monitoring.py")
        assert "OK: every tampered epoch was rejected" in capsys.readouterr().out

    def test_smart_metering(self, capsys):
        run_example("smart_metering.py")
        assert "OK: household-level consumption stays private" in (
            capsys.readouterr().out
        )

    @pytest.mark.slow
    def test_privacy_analysis(self, capsys):
        run_example("privacy_analysis.py")
        out = capsys.readouterr().out
        assert "Eavesdropping" in out
        assert "victims: none" in out
