"""Per-node energy accounting.

Data aggregation exists to save energy, so the harness tracks the radio
energy every protocol spends. The model is the standard first-order one
used in WSN papers: a fixed per-byte cost for transmission and reception
(electronics + amplifier folded together, since range is fixed here).
Defaults approximate a MICA2-class radio.

Storage is columnar, as in :mod:`repro.metrics.counters`: a float64
column of joules per node id. Scalar adds are staged in lists, batches
as arrays; a fold applies them in call order with ``np.add.at``, so each
node's total is the same float sum as one add at a time, and records
first-charge order, in which reads sum and list the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError

#: Staged adds (scalar ones, or rows of staged batches) that force a
#: fold, bounding the staging memory between reads.
FOLD_AT = 1 << 12


def first_seen(ids: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The ids not yet marked in the boolean mask ``seen``, once each in
    order of first appearance in ``ids``; marks them."""
    fresh = ~seen[ids]
    if not fresh.any():
        return ids[fresh]  # empty, and unlike a slice it holds no view of ids
    new, first = np.unique(ids[fresh], return_index=True)
    new = new[np.argsort(first, kind="stable")]
    seen[new] = True
    return new


@dataclass(frozen=True)
class EnergyReport:
    """Summary of a run's radio energy use.

    Attributes
    ----------
    total_j:
        Network-wide radio energy, joules.
    per_node_j:
        Node id -> joules, in first-charge order.
    max_node_j:
        Hottest node's spend (network lifetime is bounded by it).
    """

    total_j: float
    per_node_j: Dict[int, float]
    max_node_j: float


@dataclass
class EnergyModel:
    """Accumulates radio energy per node (non-negative ids index the column).

    Attributes
    ----------
    tx_j_per_byte:
        Energy to transmit one byte (electronics + amplifier), joules.
    rx_j_per_byte:
        Energy to receive one byte, joules.
    staged_nodes / staged_joules:
        Staged scalar adds, in call order. Per-frame hot loops append to
        them directly, so they are cleared in place, never rebound.
    before_read:
        Called before every read.
    """

    tx_j_per_byte: float = 16.25e-6
    rx_j_per_byte: float = 12.5e-6

    def __post_init__(self) -> None:
        if self.tx_j_per_byte < 0 or self.rx_j_per_byte < 0:
            raise SimulationError("energy costs must be non-negative")
        self.staged_nodes: List[int] = []
        self.staged_joules: List[float] = []
        self.before_read: Callable[[], None] = lambda: None
        self._runs: List[Tuple[np.ndarray, np.ndarray]] = []  # in call order
        self._staged_rows = 0  # in batches staged since the last fold
        self._spent = np.zeros(0)
        self._charged = np.zeros(0, dtype=bool)
        self._order: List[int] = []  # node ids in first-charge order

    def account_tx(self, node_id: int, num_bytes: int) -> None:
        """Charge ``node_id`` for transmitting ``num_bytes``."""
        self.staged_nodes.append(node_id)
        self.staged_joules.append(self.tx_j_per_byte * num_bytes)
        if len(self.staged_nodes) >= FOLD_AT:
            self.fold()

    def charge_columns(self, nodes: np.ndarray, joules: np.ndarray) -> None:
        """Stage a batch of adds: row ``i`` charges ``joules[i]`` to
        ``nodes[i]`` (ids may repeat), after every add staged before."""
        self.fold(stage=(np.asarray(nodes, dtype=np.intp), np.asarray(joules)))
        self._staged_rows += len(nodes)
        if self._staged_rows >= FOLD_AT:
            self.fold()

    def fold(self, stage: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> None:
        """Apply every staged add, in call order (or, given ``stage``,
        only queue that batch after the staged scalar adds)."""
        if self.staged_nodes:
            nodes = np.array(self.staged_nodes, dtype=np.intp)
            self._runs.append((nodes, np.array(self.staged_joules)))
            self.staged_nodes.clear()
            self.staged_joules.clear()
        if stage is not None:
            self._runs.append(stage)
            return
        if not self._runs:
            return
        nodes, joules = (np.concatenate(column) for column in zip(*self._runs))
        self._runs.clear()
        self._staged_rows = 0
        if nodes.size and int(nodes.min()) < 0:
            raise ValueError("the energy ledger takes non-negative node ids")
        grow = int(nodes.max(initial=-1)) + 1 - self._spent.size
        if grow > 0:
            grow = max(grow, self._spent.size, 64)
            self._spent = np.pad(self._spent, (0, grow))
            self._charged = np.pad(self._charged, (0, grow))
        self._order.extend(first_seen(nodes, self._charged).tolist())
        np.add.at(self._spent, nodes, joules)

    def _read(self) -> np.ndarray:
        self.before_read()
        self.fold()
        return self._spent

    def spent(self, node_id: int) -> float:
        """Joules spent so far by ``node_id``."""
        spent = self._read()
        return float(spent[node_id]) if 0 <= node_id < spent.size else 0.0

    def snapshot(self) -> dict:
        """Run totals as a plain dict (metrics-registry provider)."""
        per_node = self._read()[self._order].tolist()
        return {
            "total_j": sum(per_node),
            "max_node_j": max(per_node, default=0.0),
            "nodes_charged": len(per_node),
        }

    def report(self) -> EnergyReport:
        """Freeze current accounting into an :class:`EnergyReport`."""
        per_node = self._read()[self._order].tolist()
        return EnergyReport(
            total_j=sum(per_node),
            per_node_j=dict(zip(self._order, per_node)),
            max_node_j=max(per_node, default=0.0),
        )
