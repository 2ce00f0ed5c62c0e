"""``AggregationService.collect``: serve until an epoch is accepted.

A rejected epoch whose witnesses name a suspect bars it from the head
role on the live instance; the next epoch re-clusters without it. The
epochs ``collect`` ran land in ``history`` and its exclusions in
``excluded``.
"""

import numpy as np
import pytest

from repro.attacks.pollution import PollutionAttack, TamperStrategy
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import Verdict
from repro.service.service import COLLECT_MAX_ROUNDS, AggregationService
from repro.topology.deploy import uniform_deployment


@pytest.fixture(scope="module")
def deployment():
    return uniform_deployment(
        150, field_size=300.0, radio_range=50.0, rng=np.random.default_rng(23)
    )


@pytest.fixture(scope="module")
def readings(deployment):
    rng = np.random.default_rng(23)
    return {
        i: float(rng.uniform(10, 30)) for i in range(1, deployment.num_nodes)
    }


def make_service(deployment, readings, seed=23, **kwargs):
    return AggregationService(
        deployment, seed=seed, readings_provider=lambda epoch: readings, **kwargs
    )


def first_epoch_heads(deployment, readings, seed=23):
    """The heads a service's FIRST epoch will see (epochs start at 1)."""
    protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=seed)
    protocol.setup()
    protocol.run_round(readings, round_id=1)
    return [h for h in protocol.last_exchange.completed_clusters if h != 0]


def verdicts(service):
    return [report.result.verdict for report in service.history]


class TestHonestNetwork:
    def test_collect_accepts_first_round(self, deployment, readings):
        service = make_service(deployment, readings)
        answer = service.collect("sum")
        assert answer.accepted
        assert answer.epoch == service.epoch == 1
        assert service.excluded == ()
        assert answer.value == pytest.approx(sum(readings.values()), rel=0.25)

    def test_repeated_collections_advance_rounds(self, deployment, readings):
        service = make_service(deployment, readings)
        first = service.collect("sum")
        second = service.collect("avg")
        assert first.accepted and second.accepted
        assert (first.epoch, second.epoch) == (1, 2)


class TestAttackedNetwork:
    def test_service_excludes_attacker_and_recovers(self, deployment, readings):
        heads = first_epoch_heads(deployment, readings)
        attacker = heads[len(heads) // 2]
        attack = PollutionAttack(
            {attacker}, TamperStrategy.CONSISTENT_OWN, magnitude=100_000
        )
        service = make_service(deployment, readings, attack_plan=attack)
        answer = service.collect("sum")
        assert answer.accepted, verdicts(service)
        assert attacker in service.excluded
        # Epoch 1 rejected and its witnesses named the attacker.
        assert not service.history[0].result.verdict.accepted
        assert service.history[0].newly_excluded == (attacker,)
        assert answer.epoch > 1
        # The accepted value is untampered (close to truth).
        assert answer.value == pytest.approx(sum(readings.values()), rel=0.25)

    def test_gives_up_after_max_rounds(self, deployment, readings):
        """Every epoch-1 head compromised: each excluded culprit leaves
        others to tamper in the re-clustered epochs, so the service must
        stop and report honestly."""
        attack = PollutionAttack(
            set(first_epoch_heads(deployment, readings)),
            TamperStrategy.CONSISTENT_OWN,
            magnitude=100_000,
        )
        service = make_service(deployment, readings, attack_plan=attack)
        answer = service.collect("sum")
        assert not answer.accepted
        assert answer.value is None
        assert service.epoch == len(service.history) == COLLECT_MAX_ROUNDS
        assert len(service.excluded) == COLLECT_MAX_ROUNDS


class TestInsufficientNetwork:
    def test_sparse_network_gives_up_cleanly(self):
        """A sparse network must terminate, not loop."""
        deployment = uniform_deployment(
            25, field_size=400.0, radio_range=50.0,
            rng=np.random.default_rng(3),
        )
        service = AggregationService(
            deployment, seed=3,
            readings_provider=lambda epoch: {i: 1.0 for i in range(1, 25)},
        )
        answer = service.collect("sum")
        assert 1 <= service.epoch <= COLLECT_MAX_ROUNDS
        if not answer.accepted:
            assert answer.value is None

    def test_insufficient_epoch_is_not_retried(self):
        """Retrying cannot help a network too sparse to answer at all."""
        deployment = uniform_deployment(
            25, field_size=400.0, radio_range=30.0,
            rng=np.random.default_rng(3),
        )
        service = AggregationService(
            deployment, seed=3,
            readings_provider=lambda epoch: {i: 1.0 for i in range(1, 25)},
        )
        answer = service.collect("sum")
        assert answer.verdict is Verdict.INSUFFICIENT
        assert service.epoch == 1


class TestExclusionPersistence:
    def test_exclusions_carry_across_collect_calls(self):
        deployment = uniform_deployment(
            130, field_size=280.0, radio_range=50.0,
            rng=np.random.default_rng(9),
        )
        readings = {i: 10.0 for i in range(1, 130)}
        attacker = first_epoch_heads(deployment, readings, seed=9)[0]
        attack = PollutionAttack(
            {attacker}, TamperStrategy.CONSISTENT_OWN, magnitude=50_000
        )
        service = make_service(deployment, readings, seed=9, attack_plan=attack)
        first = service.collect("sum")
        assert first.accepted and service.excluded == (attacker,)
        epochs_after_first = service.epoch
        second = service.collect("sum")
        # The barred attacker stays barred: one clean epoch suffices.
        assert second.accepted
        assert service.excluded == (attacker,)
        assert service.epoch == epochs_after_first + 1
