"""Protocol configuration with validation.

One :class:`IcpdaConfig` fully determines a protocol instance's behaviour
(together with the deployment and the RNG seed). Defaults reproduce the
paper family's recommended operating point: election probability tuned
for clusters of ~4, minimum privacy-safe cluster size 3, and a small
loss-tolerance threshold ``Th`` at the base station.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class IcpdaConfig:
    """All tunables of one iCPDA protocol instance.

    Cluster formation
    -----------------
    p_c:
        Self-election probability for cluster heads.
    k_min:
        Minimum cluster size (head included) for the privacy algebra to
        run; undersized clusters sit the round out (counted as loss).
    k_max:
        Maximum members a head accepts (bounds the O(m^2) share traffic).

    Integrity
    ---------
    count_threshold:
        ``Th``: maximum |reported contributors − census participants| the
        base station tolerates before rejecting (absorbs genuine loss).
    witness_fraction:
        Fraction of cluster members that act as witnesses (1.0 = all;
        ablation A1 sweeps this).

    The protocol's fixed constants live with the phases that read them:
    hop ARQ timing in :mod:`repro.core.arq`, the formation windows in
    :mod:`repro.core.clustering`, the exchange window in
    :mod:`repro.core.intracluster`, and the report slot, verdict window
    and alarm quorums in :mod:`repro.core.integrity`.
    """

    # Cluster formation
    p_c: float = 0.25
    k_min: int = 3
    k_max: int = 6
    #: "fixed": every node elects with ``p_c``. "adaptive": node i
    #: elects with ``min(1, ADAPTIVE_TARGET_K / degree_i)`` — the paper
    #: family's density-adaptive parameter (nodes learn their degree
    #: from Phase-I HELLO traffic), which keeps expected cluster size
    #: near the target across densities (see :mod:`repro.core.clustering`).
    election_mode: str = "fixed"

    # Phase engines
    #: Engines of Phases II-IV (cluster formation, share exchange,
    #: report + verdict), switched together. "scalar": per-node
    #: event-driven phases, byte-identical to the historical
    #: (golden-traced) behaviour. "batched": each phase computed
    #: in-process under a reliable control plane (clustering_batched,
    #: intracluster_batched with vectorized Mersenne-61 share algebra,
    #: integrity_batched), its frames replayed through the Transport
    #: seam at their scalar-equivalent instants so byte/energy
    #: accounting stays truthful. On a lossless transport clusters,
    #: sums, share log, verdicts and per-kind byte totals equal scalar;
    #: on lossy ones only seeded determinism holds (no ARQ retransmits
    #: are replayed; see docs/PERF.md). ``None`` means "scalar".
    engine: Optional[str] = None
    #: Deprecated init-only aliases of ``engine``, never stored (reading
    #: one gives None); an unset one counts as "scalar". Together with
    #: ``engine`` they must name one engine, else ``ConfigError``.
    share_backend: InitVar[Optional[str]] = None
    clustering_backend: InitVar[Optional[str]] = None

    # Integrity
    #: "witnessed": the full peer-monitoring layer (itemized reports,
    #: F-set publication, witnesses, alarms, Th verdict).
    #: "none": privacy-only operation — minimal reports, no monitoring,
    #: every non-empty round accepted (the CPDA-without-integrity
    #: baseline; ablation A7 measures what the difference costs).
    integrity_mode: str = "witnessed"
    count_threshold: int = 5
    witness_fraction: float = 1.0

    # Aggregate
    aggregate_name: str = "sum"
    fixed_point_scale: int = 100

    # Participation restriction (used by attacker localization): when set,
    # only clusters whose head id is in this tuple report upstream.
    restrict_to_clusters: Optional[Tuple[int, ...]] = None

    # Nodes barred from the cluster-head (aggregator) role — the base
    # station's exclusion list after localizing a polluter. Excluded
    # nodes may still join clusters as plain members: a compromised
    # member can only falsify its own reading, which is the
    # bounded-impact attack the paper scopes out.
    excluded_heads: Tuple[int, ...] = ()

    def __post_init__(
        self, share_backend: Optional[str], clustering_backend: Optional[str]
    ) -> None:
        engines = {self.engine} - {None}
        if share_backend is not None or clustering_backend is not None:
            engines |= {share_backend or "scalar", clustering_backend or "scalar"}
        if len(engines) > 1:
            raise ConfigError(
                f"engine={self.engine!r}, share_backend={share_backend!r} and "
                f"clustering_backend={clustering_backend!r} name more than one "
                f"engine; mixed pipelines no longer exist"
            )
        object.__setattr__(self, "engine", engines.pop() if engines else "scalar")
        if not 0.0 < self.p_c <= 1.0:
            raise ConfigError(f"p_c must be in (0, 1], got {self.p_c}")
        if self.k_min < 2:
            raise ConfigError(f"k_min must be >= 2 for any privacy, got {self.k_min}")
        if self.k_max < self.k_min:
            raise ConfigError(
                f"k_max ({self.k_max}) must be >= k_min ({self.k_min})"
            )
        if self.integrity_mode not in ("witnessed", "none"):
            raise ConfigError(
                f"integrity_mode must be 'witnessed' or 'none', "
                f"got {self.integrity_mode!r}"
            )
        if self.election_mode not in ("fixed", "adaptive"):
            raise ConfigError(
                f"election_mode must be 'fixed' or 'adaptive', "
                f"got {self.election_mode!r}"
            )
        if self.engine not in ("scalar", "batched"):
            raise ConfigError(
                f"engine must be 'scalar' or 'batched', got {self.engine!r}"
            )
        if self.count_threshold < 0:
            raise ConfigError(
                f"count_threshold must be >= 0, got {self.count_threshold}"
            )
        if not 0.0 < self.witness_fraction <= 1.0:
            raise ConfigError(
                f"witness_fraction must be in (0, 1], got {self.witness_fraction}"
            )
        if self.fixed_point_scale < 1:
            raise ConfigError(
                f"fixed_point_scale must be >= 1, got {self.fixed_point_scale}"
            )

    def with_restriction(self, cluster_heads: Tuple[int, ...]) -> "IcpdaConfig":
        """Copy of this config restricted to the given clusters (used by
        the attacker-localization search)."""
        return replace(self, restrict_to_clusters=tuple(sorted(cluster_heads)))

    def with_excluded_heads(self, nodes: Tuple[int, ...]) -> "IcpdaConfig":
        """Copy with ``nodes`` (merged with any existing exclusions)
        barred from the aggregator role."""
        merged = tuple(sorted(set(self.excluded_heads) | set(nodes)))
        return replace(self, excluded_heads=merged)
