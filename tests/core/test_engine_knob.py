"""The one ``engine`` knob that selects the Phase II-IV engines.

1. **Alias contract** — the legacy ``share_backend``/``clustering_backend``
   init arguments map onto ``engine`` when they name one engine, and a
   mixed pair (a pipeline that no longer exists) fails fast.
2. **Live engine switch** — ``apply_config`` can move a running instance
   between the scalar and batched engines: the batched replay must not
   reach the addressed handlers a previous scalar round left registered.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.errors import ConfigError
from repro.experiments.common import build_icpda, make_readings


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


class TestLiveEngineSwitch:
    @pytest.mark.parametrize("transport", ["des", "fluid-bulk"])
    @pytest.mark.parametrize(
        "first,second", [("scalar", "batched"), ("batched", "scalar")]
    )
    def test_switch_between_rounds(
        self, transport: str, first: str, second: str
    ) -> None:
        protocol = build_icpda(
            300, IcpdaConfig(engine=first), seed=3, transport=transport
        )
        readings = make_readings(300, rng=np.random.default_rng(3))
        results = [protocol.run_round(readings, round_id=0)]
        protocol.apply_config(replace(protocol.config, engine=second))
        results.append(protocol.run_round(readings, round_id=1))
        for result in results:
            assert result.verdict.accepted
            assert result.alarms == []
            assert result.contributors > 0

    def test_replayed_kinds_are_logged_after_scalar_to_batched(self) -> None:
        """The scalar round leaves its handlers registered; the switch
        clears them, and the bulk transport must notice: every replayed
        batch that finds no frame awaiting its tick is logged for one
        settle pass, not sealed and queued on its own."""
        protocol = build_icpda(
            300, IcpdaConfig(engine="scalar"), seed=3, transport="fluid-bulk"
        )
        readings = make_readings(300, rng=np.random.default_rng(3))
        protocol.run_round(readings, round_id=0)
        stack = protocol.stack
        assert len(stack._handler_count) > 1
        protocol.apply_config(replace(protocol.config, engine="batched"))
        assert stack._handler_count == {}

        batches = []
        send_many = stack.send_many

        def spy(kind, src, dst, size_bytes):
            queued = bool(stack._q_time)
            send_many(kind, src, dst, size_bytes)
            last = stack._log[-1] if stack._log else None
            logged = (
                last is not None
                and last[:2] == (stack.sim.now, kind)
                and last[2].size == len(src)
            )
            batches.append((queued, logged))

        stack.send_many = spy
        result = protocol.run_round(readings, round_id=1)
        assert result.verdict.accepted
        assert sum(logged for _, logged in batches) > 10
        assert all(logged for queued, logged in batches if not queued)
