"""Per-node energy accounting.

Data aggregation exists to save energy, so the harness tracks the radio
energy every protocol spends. The model is the standard first-order one
used in WSN papers: a fixed per-byte cost for transmission and reception
(electronics + amplifier folded together, since range is fixed here).
Defaults approximate a MICA2-class radio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import SimulationError


@dataclass(frozen=True)
class EnergyReport:
    """Summary of a run's radio energy use.

    Attributes
    ----------
    total_j:
        Network-wide radio energy, joules.
    per_node_j:
        Node id -> joules.
    max_node_j:
        Hottest node's spend (network lifetime is bounded by it).
    """

    total_j: float
    per_node_j: Dict[int, float]
    max_node_j: float


@dataclass
class EnergyModel:
    """Accumulates radio energy per node.

    Attributes
    ----------
    tx_j_per_byte:
        Energy to transmit one byte (electronics + amplifier), joules.
    rx_j_per_byte:
        Energy to receive one byte, joules.
    """

    tx_j_per_byte: float = 16.25e-6
    rx_j_per_byte: float = 12.5e-6
    _spent: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tx_j_per_byte < 0 or self.rx_j_per_byte < 0:
            raise SimulationError("energy costs must be non-negative")

    def account_tx(self, node_id: int, num_bytes: int) -> None:
        """Charge ``node_id`` for transmitting ``num_bytes``."""
        self._spent[node_id] = self._spent.get(node_id, 0.0) + (
            self.tx_j_per_byte * num_bytes
        )

    def account_rx(self, node_id: int, num_bytes: int) -> None:
        """Charge ``node_id`` for receiving ``num_bytes``."""
        self._spent[node_id] = self._spent.get(node_id, 0.0) + (
            self.rx_j_per_byte * num_bytes
        )

    def spent(self, node_id: int) -> float:
        """Joules spent so far by ``node_id``."""
        return self._spent.get(node_id, 0.0)

    def snapshot(self) -> dict:
        """Run totals as a plain dict (metrics-registry provider)."""
        per_node = self._spent.values()
        return {
            "total_j": sum(per_node),
            "max_node_j": max(per_node) if self._spent else 0.0,
            "nodes_charged": len(self._spent),
        }

    def report(self) -> EnergyReport:
        """Freeze current accounting into an :class:`EnergyReport`."""
        per_node = dict(self._spent)
        total = sum(per_node.values())
        max_node = max(per_node.values()) if per_node else 0.0
        return EnergyReport(total_j=total, per_node_j=per_node, max_node_j=max_node)

    def reset(self) -> None:
        """Zero all counters (new round on the same network)."""
        self._spent.clear()
