"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so a
caller embedding the simulator can catch one type. Subtrees mirror the
package layout: simulation-kernel errors, topology errors, crypto errors,
and protocol errors each have their own base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class ScheduleInPastError(SimulationError):
    """An event was scheduled at a time earlier than the current clock."""


class KernelStateError(SimulationError):
    """The kernel was driven through an invalid state transition."""


# ---------------------------------------------------------------------------
# Topology / deployment
# ---------------------------------------------------------------------------


class TopologyError(ReproError):
    """Base class for deployment and graph construction errors."""


class DeploymentError(TopologyError):
    """Invalid deployment parameters (empty field, non-positive range, ...)."""


# ---------------------------------------------------------------------------
# Crypto substrate
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for key-management and link-encryption errors."""


class MissingKeyError(CryptoError):
    """Decryption was attempted by a principal that does not hold the key."""


class NoSharedKeyError(CryptoError):
    """Two nodes have no common key and cannot establish a secure link."""


# ---------------------------------------------------------------------------
# Aggregation / protocol
# ---------------------------------------------------------------------------


class AggregationError(ReproError):
    """Base class for aggregate-function and TAG protocol errors."""


class ProtocolError(ReproError):
    """Base class for iCPDA protocol errors."""


class ConfigError(ProtocolError):
    """A protocol configuration failed validation."""


class ClusterFormationError(ProtocolError):
    """Cluster formation could not satisfy its invariants."""


class ShareAlgebraError(ProtocolError):
    """The polynomial share algebra was used inconsistently."""


class FieldArithmeticError(ShareAlgebraError):
    """Invalid prime-field operation (bad modulus, non-invertible element)."""
