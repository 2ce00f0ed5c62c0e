"""Round outcome records: verdicts, alarms, and the result bundle."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Verdict(enum.Enum):
    """The base station's decision about one aggregation round."""

    #: No alarms, contributor count plausible: result accepted.
    ACCEPTED = "accepted"
    #: A witness reported a value mismatch: result rejected.
    REJECTED_ALARM = "rejected_alarm"
    #: Contributor count deviated from the census beyond ``Th``.
    REJECTED_MISMATCH = "rejected_mismatch"
    #: Too little of the network participated to answer at all.
    INSUFFICIENT = "insufficient"

    @property
    def accepted(self) -> bool:
        """True only for :attr:`ACCEPTED`."""
        return self is Verdict.ACCEPTED


class AlarmReason(enum.Enum):
    """Why a witness raised an alarm."""

    #: The head's claimed own-cluster sum differs from the recovered one.
    OWN_SUM_MISMATCH = "own_sum_mismatch"
    #: The head's total does not equal own sum plus listed child totals.
    TOTAL_ARITHMETIC = "total_arithmetic"
    #: A listed child total differs from the value the witness delivered
    #: or overheard.
    CHILD_TAMPERED = "child_tampered"
    #: A relayed frame was altered in transit by the next hop.
    RELAY_TAMPERED = "relay_tampered"
    #: The head published an F-set contradicting a first-hand F-value.
    FSET_TAMPERED = "fset_tampered"
    #: The next hop never forwarded a frame it was given (watchdog).
    DROPPED = "dropped"


@dataclass(frozen=True)
class AlarmRecord:
    """One witness alarm as received by the base station.

    Attributes
    ----------
    witness:
        Node that observed the violation.
    suspect:
        Node accused of tampering or dropping.
    reason:
        The violated check.
    detail:
        Free-form context (expected/observed values).
    """

    witness: int
    suspect: int
    reason: AlarmReason
    detail: str = ""
    cluster: int = -1


@dataclass
class RoundResult:
    """Everything one iCPDA round produced.

    Attributes
    ----------
    verdict:
        The base station's accept/reject decision.
    value:
        Finalized aggregate (None when rejected/insufficient).
    raw_totals:
        Component sums behind ``value`` (post-decode signed ints).
    contributors:
        Sensor readings folded into the aggregate.
    census_participants:
        Members registered by cluster heads during formation (the
        base station's expectation for ``contributors``).
    true_value:
        Lossless ground truth over all readings.
    accuracy:
        ``value / true_value`` when accepted, else NaN.
    alarms:
        De-duplicated alarms that reached the base station.
    clusters_formed / clusters_completed:
        Cluster counts after formation / after the share exchange.
    participation:
        contributors / total sensors.
    duration_s:
        Virtual time the round took end to end.
    suspect_counts:
        suspect node -> number of distinct alarming witnesses.
    """

    verdict: Verdict
    value: Optional[float]
    raw_totals: Tuple[int, ...]
    contributors: int
    census_participants: int
    true_value: float
    accuracy: float
    alarms: List[AlarmRecord] = field(default_factory=list)
    clusters_formed: int = 0
    clusters_completed: int = 0
    participation: float = 0.0
    duration_s: float = 0.0
    suspect_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def detected_pollution(self) -> bool:
        """True if the round was rejected for integrity reasons."""
        return self.verdict in (Verdict.REJECTED_ALARM, Verdict.REJECTED_MISMATCH)

    def top_suspect(self) -> Optional[int]:
        """The most-accused node, or None without alarms."""
        if not self.suspect_counts:
            return None
        return max(self.suspect_counts, key=lambda s: (self.suspect_counts[s], -s))
