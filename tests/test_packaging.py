"""Packaging: one version, and numpy as the only runtime dependency.

The version lives in one place, ``repro.__version__``. It feeds every
cell-cache key and manifest, so ``pyproject.toml`` must read it from
there instead of declaring a second literal.
"""

import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_holds_no_literal_version() -> None:
    config = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }


def test_setuptools_resolves_the_package_version() -> None:
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(PYPROJECT, expand=True)
    assert config["project"]["version"] == repro.__version__


def test_runtime_dependencies_are_numpy_alone() -> None:
    config = tomllib.loads(PYPROJECT.read_text())
    assert config["project"]["dependencies"] == ["numpy"]
    assert "networkx" in config["project"]["optional-dependencies"]["test"]


@pytest.mark.parametrize("transport", ["des", "fluid", "fluid-bulk"])
def test_a_round_never_imports_networkx(transport: str) -> None:
    """One tiny round, plus the density statistics, in a fresh
    interpreter: networkx is a test oracle, never loaded at run time."""
    script = textwrap.dedent(
        f"""
        import sys

        import numpy as np

        from repro.core import IcpdaConfig, IcpdaProtocol
        from repro.experiments.common import make_readings
        from repro.topology.deploy import uniform_deployment
        from repro.topology.stats import density_stats

        deployment = uniform_deployment(
            40, field_size=150.0, rng=np.random.default_rng(1)
        )
        protocol = IcpdaProtocol(
            deployment, IcpdaConfig(), seed=1, transport={transport!r}
        )
        protocol.setup()
        protocol.run_round(make_readings(40, rng=np.random.default_rng(2)))
        density_stats(deployment)
        assert "networkx" not in sys.modules, "networkx was imported"
        """
    )
    src = str(PYPROJECT.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
