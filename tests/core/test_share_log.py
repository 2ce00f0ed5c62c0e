"""The batched exchange's share log, built on first read.

:class:`~repro.core.intracluster_batched.BatchedShareExchange` keeps its
log as columns and ``ExchangeResult.share_log`` builds the entries the
first time it is read. The digests below were taken from the exchange
that built every entry eagerly, so the log must match it in order and in
content, relays included: on the loopback fake (plain, larger grid, and
key predistribution that aborts clusters) and for two rounds on
``fluid-bulk``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import intracluster_batched
from repro.core.config import IcpdaConfig
from repro.crypto.linksec import LinkSecurity
from repro.crypto.predistribution import RandomPredistributionScheme
from repro.experiments.common import build_icpda, make_readings
from tests.core.test_exchange_batched import _run_exchange


def _digest(log):
    """(entries, relayed entries, hash of every entry in order)."""
    rows = [(t.origin, t.recipient, t.links) for t in log]
    relayed = sum(len(links) == 2 for _, _, links in rows)
    return len(rows), relayed, hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _keyed_linksec():
    scheme = RandomPredistributionScheme(40, 8, rng=np.random.default_rng(1))
    scheme.provision_all(list(range(36)))
    return LinkSecurity(scheme)


LOOPBACK = {
    "grid6": (dict(), (78, 38, "24efea15e4d0ab93")),
    "grid7": (dict(seed=3, side=7), (102, 46, "8d819f1dc6131b08")),
    "keys": (dict(linksec="keyed"), (56, 26, "b10bca580d7d7b20")),
}

#: Round 1 and round 2 of N=300, seed 3, batched engines on fluid-bulk.
BULK_ROUNDS = [(1244, 298, "431f36c0ad763fbd"), (1174, 340, "120d1fde966a6fb1")]


def _loopback_exchange(case):
    kwargs = dict(LOOPBACK[case][0])
    if kwargs.get("linksec") == "keyed":
        kwargs["linksec"] = _keyed_linksec()
    return _run_exchange(IcpdaConfig(engine="batched"), **kwargs)[0]


def _bulk_protocol():
    config = IcpdaConfig(engine="batched")
    protocol = build_icpda(300, config, 3, transport="fluid-bulk")
    readings = make_readings(300, kind="metering", rng=np.random.default_rng(10_003))
    return protocol, readings


@pytest.mark.parametrize("case", sorted(LOOPBACK))
def test_loopback_log_equals_the_eager_log(case):
    assert _digest(_loopback_exchange(case).share_log) == LOOPBACK[case][1]


class _Counting(intracluster_batched.ShareTransmission):
    built = 0

    def __init__(self, *args) -> None:
        type(self).built += 1
        super().__init__(*args)


@pytest.fixture
def counting(monkeypatch):
    """Count the log entries the batched exchange builds."""
    monkeypatch.setattr(_Counting, "built", 0)
    monkeypatch.setattr(intracluster_batched, "ShareTransmission", _Counting)
    return _Counting


def test_bulk_rounds_keep_their_own_logs(counting):
    """Rounds that nobody reads the log of build no entry. Each round's
    log is its own, even read only after the next round ran; read in
    either order, each equals the eager log of its round."""
    protocol, readings = _bulk_protocol()
    results = []
    for _ in BULK_ROUNDS:
        protocol.run_round(readings)
        results.append(protocol.last_exchange)
    assert counting.built == 0
    assert results[0] is not results[1]
    assert [_digest(r.share_log) for r in reversed(results)] == BULK_ROUNDS[::-1]


def test_unread_log_builds_nothing_and_a_read_builds_once(counting):
    exchange = _loopback_exchange("grid6")
    assert counting.built == 0
    log = exchange.share_log
    assert counting.built == len(log) == LOOPBACK["grid6"][1][0]
    again = exchange.share_log
    assert again is log and len(again) == len(log)
    assert counting.built == len(log)
