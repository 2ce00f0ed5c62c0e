"""Data-pollution attackers.

A pollution attacker is a compromised node that alters intermediate
aggregation state. Each :class:`TamperStrategy` is crafted to evade a
*different* subset of the witness checks, so the detection experiments
exercise every check individually:

==================  ====================================================
strategy            what it does / which check catches it
==================  ====================================================
NAIVE_TOTAL         inflates ``total`` only — caught by the member
                    witnesses' arithmetic check (total != own+children).
CONSISTENT_OWN      inflates ``own`` and ``total`` consistently — caught
                    by members comparing ``own`` against the cluster sum
                    they recovered themselves.
CONSISTENT_CHILD    inflates one listed child and ``total`` — caught by
                    witnesses that overheard the child's true delivery.
FORWARD_TAMPER      alters reports in transit (relay role) — caught by
                    the relay-tamper comparison.
DROP                silently discards relayed reports — surfaces as a
                    census shortfall plus drop-watchdog attribution.
==================  ====================================================

All attackers can additionally suppress alarms routed through them
(``suppress_alarms=True``), which the duplicate-path alarm routing is
designed to survive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Set

from repro.errors import ReproError


class TamperStrategy(enum.Enum):
    """How a compromised head/relay manipulates aggregation state."""

    NAIVE_TOTAL = "naive_total"
    CONSISTENT_OWN = "consistent_own"
    CONSISTENT_CHILD = "consistent_child"
    FORWARD_TAMPER = "forward_tamper"
    DROP = "drop"


@dataclass
class PollutionAttack:
    """An :class:`~repro.core.integrity.AttackPlan` implementation.

    Parameters
    ----------
    attackers:
        Compromised node ids.
    strategy:
        The tamper strategy all attackers follow.
    magnitude:
        Integer added to (or, for REPLACE-like effects, dominating) the
        first aggregate component; expressed in fixed-point units.
    suppress_alarms:
        Whether attackers also swallow alarms they are asked to relay.
    colluders:
        Additional compromised nodes that stay *protocol-honest* but
        never witness against the attackers — the paper's future-work
        collusive boundary. Attackers themselves always collude.
    """

    attackers: Set[int]
    strategy: TamperStrategy = TamperStrategy.NAIVE_TOTAL
    magnitude: int = 10_000
    suppress_alarms: bool = True
    colluders: Set[int] = field(default_factory=set)
    tampers_performed: int = 0
    drops_performed: int = 0
    alarms_suppressed: int = 0
    _tampered_nodes: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.attackers = set(self.attackers)
        self.colluders = set(self.colluders)
        if not self.attackers:
            raise ReproError("a pollution attack needs at least one attacker")
        if self.magnitude == 0:
            raise ReproError("magnitude 0 would be a no-op attack")

    # -- AttackPlan interface ---------------------------------------------------

    def mutate_report(self, node: int, payload: dict) -> dict:
        """Tamper with the attacker's own head report."""
        if node not in self.attackers:
            return payload
        mutated = dict(payload)
        consistent = (TamperStrategy.CONSISTENT_OWN, TamperStrategy.CONSISTENT_CHILD)
        if self.strategy is TamperStrategy.NAIVE_TOTAL or (
            # A privacy-only report (integrity_mode="none") carries no
            # own/children itemization to keep consistent: bump the total.
            self.strategy in consistent and "own" not in mutated
        ):
            mutated["total"] = self._bump(mutated["total"])
        elif self.strategy is TamperStrategy.CONSISTENT_OWN:
            mutated["own"] = self._bump(mutated["own"])
            mutated["total"] = self._bump(mutated["total"])
        elif self.strategy is TamperStrategy.CONSISTENT_CHILD:
            children = [list(c) for c in mutated["children"]]
            if not children:
                # No child to frame: fall back to the own-sum tamper.
                mutated["own"] = self._bump(mutated["own"])
                mutated["total"] = self._bump(mutated["total"])
            else:
                children[0] = [
                    children[0][0],
                    self._bump(children[0][1]),
                    children[0][2],
                ]
                mutated["children"] = children
                mutated["total"] = self._bump(mutated["total"])
        else:
            return payload
        self.tampers_performed += 1
        self._tampered_nodes[node] = self._tampered_nodes.get(node, 0) + 1
        return mutated

    def mutate_forward(self, node: int, payload: dict) -> dict:
        """Tamper with a report the attacker relays."""
        if node not in self.attackers or self.strategy is not TamperStrategy.FORWARD_TAMPER:
            return payload
        mutated = dict(payload)
        mutated["total"] = self._bump(mutated["total"])
        self.tampers_performed += 1
        self._tampered_nodes[node] = self._tampered_nodes.get(node, 0) + 1
        return mutated

    def drops_report(self, node: int, payload: dict) -> bool:
        """Silently drop relayed reports under the DROP strategy."""
        del payload
        if node in self.attackers and self.strategy is TamperStrategy.DROP:
            self.drops_performed += 1
            return True
        return False

    def suppresses_alarm(self, node: int) -> bool:
        """Swallow alarms routed through an attacker, when enabled."""
        if node in self.attackers and self.suppress_alarms:
            self.alarms_suppressed += 1
            return True
        return False

    def colludes(self, node: int) -> bool:
        """Attackers and designated colluders never witness."""
        return node in self.attackers or node in self.colluders

    # -- helpers -----------------------------------------------------------------

    def _bump(self, totals: Iterable[int]) -> list:
        values = [int(v) for v in totals]
        values[0] += self.magnitude
        return values

    def acted(self) -> bool:
        """True if the attack actually touched any traffic this round."""
        return self.tampers_performed > 0 or self.drops_performed > 0
