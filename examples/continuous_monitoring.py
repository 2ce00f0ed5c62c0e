#!/usr/bin/env python3
"""Continuous monitoring: many epochs on one network, attack mid-stream.

Runs an environmental-monitoring deployment for ten epochs as a
long-lived :class:`repro.service.AggregationService` — one live protocol
instance for the whole run, so energy, byte counters, and per-phase
ledgers genuinely accumulate across rounds (the script asserts it).
Midway, three nodes are compromised and tamper whenever the
(re-randomized, per-epoch) clustering hands them an aggregator role. The
log shows the protocol's actual guarantee in action:

* every epoch where tampering **occurred** is rejected and the witnesses
  name a culprit, which the service excludes from the head role *on the
  live instance* (``IcpdaProtocol.exclude_heads`` — no rebuild, no
  ledger reset);
* epochs where the compromised nodes drew no aggregation role (or are
  already excluded) proceed normally — a compromised *member* can only
  falsify its own reading, the bounded attack the paper scopes out.

Each epoch serves a batched AVG+VAR query pair: one protocol round
answers both (composite aggregate), exactly how the asyncio gateway
coalesces concurrent clients.

Run:  python examples/continuous_monitoring.py
"""

import numpy as np

from repro import IcpdaConfig, uniform_deployment
from repro.attacks.pollution import PollutionAttack, TamperStrategy
from repro.service import AggregationService, Query

SEED = 33
NUM_NODES = 180
EPOCHS = 10
ATTACK_FROM_EPOCH = 4


class MidStreamAttack:
    """An attack plan that activates only from a given epoch onward."""

    def __init__(self, inner: PollutionAttack) -> None:
        self.inner = inner
        self.active = False

    def mutate_report(self, node, payload):
        return self.inner.mutate_report(node, payload) if self.active else payload

    def mutate_forward(self, node, payload):
        return self.inner.mutate_forward(node, payload) if self.active else payload

    def drops_report(self, node, payload):
        return self.active and self.inner.drops_report(node, payload)

    def suppresses_alarm(self, node):
        return self.active and self.inner.suppresses_alarm(node)

    def colludes(self, node):
        return self.active and self.inner.colludes(node)


def main() -> None:
    rng = np.random.default_rng(SEED)
    deployment = uniform_deployment(NUM_NODES, rng=rng)
    compromised = {31, 77, 140}
    attack = MidStreamAttack(
        PollutionAttack(
            set(compromised), TamperStrategy.CONSISTENT_OWN, magnitude=200_000
        )
    )
    print(f"{NUM_NODES - 1} sensors; nodes {sorted(compromised)} turn "
          f"malicious at epoch {ATTACK_FROM_EPOCH}\n")

    def readings_provider(epoch: int):
        return {
            i: float(20.0 + 5.0 * np.sin(epoch / 2.0) + rng.normal(0, 1.0))
            for i in range(1, NUM_NODES)
        }

    service = AggregationService(
        deployment,
        IcpdaConfig(),
        seed=SEED,
        readings_provider=readings_provider,
        attack_plan=attack,
    )
    service.start()
    protocol = service.protocol  # one live instance, never replaced

    print(f"{'epoch':>5}  {'verdict':>17}  {'avg':>7}  {'part':>5}  "
          f"{'energy J':>9}  {'tampered?':>9}  note")
    violations = []
    energy_trace = []
    for epoch in range(1, EPOCHS + 1):
        attack.active = epoch >= ATTACK_FROM_EPOCH
        tampers_before = attack.inner.tampers_performed
        answers = service.serve_batch(("avg", "var"))
        report = service.history[-1]
        acted = attack.inner.tampers_performed > tampers_before
        note = ""
        if report.newly_excluded:
            note = f"excluding node {report.newly_excluded[0]} (live)"
        if acted and report.result.verdict.accepted:
            violations.append(epoch)
            note = "!! tamper accepted"
        avg = answers[Query("avg")]
        shown = f"{avg.value:7.1f}" if avg.value is not None else "      -"
        energy = service.snapshot()["total_energy_j"]
        energy_trace.append(energy)
        print(f"{epoch:>5}  {report.result.verdict.value:>17}  {shown}  "
              f"{avg.participation:5.2f}  {energy:9.2f}  {str(acted):>9}  {note}")

    excluded = set(service.excluded)
    print(f"\nExcluded aggregators: {sorted(excluded)} "
          f"(compromised: {sorted(compromised)})")

    # The long-lived-service contract, asserted:
    assert service.protocol is protocol, "protocol instance was rebuilt"
    assert all(b > a for a, b in zip(energy_trace, energy_trace[1:])), \
        "energy stopped accumulating across epochs"
    assert not violations, f"tampered epochs accepted: {violations}"
    assert excluded <= compromised, "only real attackers may be excluded"
    print("OK: every tampered epoch was rejected; exclusions were applied "
          "in place; energy accumulated across all epochs.")


if __name__ == "__main__":
    main()
