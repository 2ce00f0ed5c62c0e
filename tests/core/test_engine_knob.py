"""The one ``engine`` knob that selects the Phase II-IV engines.

**Alias contract** — the legacy ``share_backend``/``clustering_backend``
init arguments map onto ``engine`` when they name one engine, and a
mixed pair (a pipeline that no longer exists) fails fast.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import IcpdaConfig
from repro.errors import ConfigError


class TestAliasContract:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_matching_aliases_equal_engine(self, engine: str) -> None:
        expected = IcpdaConfig(engine=engine, count_threshold=7)
        assert expected.engine == engine
        for aliases in (
            {"share_backend": engine, "clustering_backend": engine},
            {"engine": engine, "share_backend": engine, "clustering_backend": engine},
        ):
            assert IcpdaConfig(count_threshold=7, **aliases) == expected

    def test_default_is_scalar(self) -> None:
        assert IcpdaConfig().engine == "scalar"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"share_backend": "batched", "clustering_backend": "scalar"},
            {"share_backend": "scalar", "clustering_backend": "batched"},
            # An unset alias stands for its old default, "scalar".
            {"share_backend": "batched"},
            {"clustering_backend": "batched"},
            {"engine": "scalar", "share_backend": "batched", "clustering_backend": "batched"},
            {"engine": "batched", "share_backend": "scalar"},
        ],
    )
    def test_mixed_or_contradicting_aliases_rejected(self, kwargs) -> None:
        with pytest.raises(ConfigError):
            IcpdaConfig(**kwargs)

    def test_replace_keeps_engine(self) -> None:
        batched = IcpdaConfig(engine="batched")
        assert replace(batched, count_threshold=3).engine == "batched"
        assert replace(batched, engine="scalar").engine == "scalar"
