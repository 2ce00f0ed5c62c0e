"""The package version lives in one place: ``repro.__version__``.

It feeds every cell-cache key and manifest, so ``pyproject.toml`` must
read it from there instead of declaring a second literal.
"""

import pathlib
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
