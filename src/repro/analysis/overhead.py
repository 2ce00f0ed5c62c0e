"""Communication-cost model: TAG vs iCPDA (experiment F3's analytic
series).

Prices the frames a node originates per aggregation round, with byte
sizes matching :mod:`repro.net.packet` conventions (16-byte header,
4-byte ints, 8-byte field elements, 8-byte AEAD overhead per ciphertext).

Per-node frames behind the byte counts, cluster size ``m`` (ARQ retries
excluded — they are congestion-dependent and measured, not modelled):

=====================  =========================
TAG                    iCPDA
=====================  =========================
hello            1     hello                 1
partial          1     announce or join      1
.                      member list        2/m
.                      shares           m - 1
.                      share acks       m - 1
.                      F-value              1
.                      F-value ack       ~1/m·(m-1)≈1
.                      F-set              2/m
.                      census + acks     ~2h/m
.                      report + acks     ~2h/m
=====================  =========================

``h`` is the mean hop count from a head to its absorber (typically 1-3;
the model takes ``MEAN_HOPS``).
The headline ratio the paper family quotes — overhead growing linearly
in the slice/cluster parameter — appears here as ``≈ (2m + 2) / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.net.packet import HEADER_BYTES


@dataclass(frozen=True)
class CostModel:
    """Byte-size constants used by the analytic model.

    Matches the sizes produced by the wire-size rules in
    :mod:`repro.net.packet` for the protocol's actual payloads.
    """

    header: int = HEADER_BYTES
    int_bytes: int = 4
    field_bytes: int = 8
    aead_overhead: int = 8

    def hello_bytes(self) -> int:
        """HELLO: header + depth."""
        return self.header + self.int_bytes

    def tag_partial_bytes(self, arity: int) -> int:
        """TAG partial: header + components + contributor count."""
        return self.header + arity * self.int_bytes + self.int_bytes

    def share_bytes(self, arity: int) -> int:
        """Encrypted share: header + origin + dst + ciphertext."""
        return (
            self.header
            + 2 * self.int_bytes
            + arity * self.field_bytes
            + self.aead_overhead
        )

    def fvalue_bytes(self, arity: int) -> int:
        """F-value broadcast: header + cluster + seed + member + values."""
        return self.header + 3 * self.int_bytes + arity * self.field_bytes

    def report_bytes(self, arity: int) -> int:
        """Head report: header + ids/counters + own + total + one child."""
        fixed = self.header + 3 * self.int_bytes + 2 * arity * self.int_bytes
        per_child = (arity + 2) * self.int_bytes
        return int(fixed + per_child)

    def ack_bytes(self) -> int:
        """Any link ack: header + one id."""
        return self.header + self.int_bytes


#: Mean hop count ``h`` from a head to its absorber.
MEAN_HOPS = 2.0
#: Components of the aggregate the model prices (SUM has one).
ARITY = 1


def tag_bytes_per_node() -> float:
    """TAG bytes originated per node per round."""
    model = CostModel()
    return model.hello_bytes() + model.tag_partial_bytes(ARITY)


def icpda_bytes_per_node(m: int) -> float:
    """iCPDA bytes originated per node per round for cluster size ``m``.

    Raises
    ------
    ReproError
        For cluster sizes below the privacy minimum of 2.
    """
    if m < 2:
        raise ReproError(f"cluster size must be >= 2, got {m}")
    model = CostModel()
    per_member = (
        model.hello_bytes()
        + (model.header + model.int_bytes)  # announce/join
        + 2.0 / m * (model.header + (m + 1) * model.int_bytes)  # member list
        + (m - 1) * model.share_bytes(ARITY)
        + (m - 1) * model.ack_bytes()
        + model.fvalue_bytes(ARITY)
        + (m - 1) / m * model.ack_bytes()
        + 2.0 / m * (model.header + m * (model.int_bytes + ARITY * model.field_bytes))
    )
    census = model.header + 3 * model.int_bytes
    report = model.report_bytes(ARITY)
    routed_bytes = MEAN_HOPS / m * (
        census + report + 2 * model.ack_bytes()
    )
    return per_member + routed_bytes


def overhead_ratio(m: int) -> float:
    """Analytic iCPDA/TAG byte ratio — the headline overhead number."""
    return icpda_bytes_per_node(m) / tag_bytes_per_node()
