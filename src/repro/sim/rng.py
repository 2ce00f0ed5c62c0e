"""Named, independently seeded random streams.

Reproducibility discipline: every stochastic decision in the library draws
from a *named stream* (``"topology"``, ``"mac.backoff"``, ``"protocol.42"``
...). Streams are derived from one master seed with
:class:`numpy.random.SeedSequence` spawning, so

* the same master seed always yields the same run, and
* adding draws to one stream never perturbs another (no accidental
  coupling between, say, channel noise and cluster elections).
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class RngRegistry:
    """Factory and cache of named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    master_seed:
        Seed every stream's :class:`~numpy.random.SeedSequence` is
        derived from.

    Example
    -------
    >>> rngs = RngRegistry(123)
    >>> a = rngs.stream("topology").integers(0, 10, 3)
    >>> b = RngRegistry(123).stream("topology").integers(0, 10, 3)
    >>> bool((a == b).all())
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The stream seed depends only on ``(master_seed, name)`` — not on
        creation order — so call sites may be reordered freely.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        generator = self._streams.get(name)
        if generator is None:
            child = np.random.SeedSequence(
                self._master_seed,
                spawn_key=tuple(name.encode("utf-8")),
            )
            generator = np.random.default_rng(child)
            self._streams[name] = generator
        return generator

    def uniform_block(self, name: str, count: int) -> np.ndarray:
        """Draw ``count`` uniforms in [0, 1) from stream ``name`` at once.

        Draw-ordering contract (the batched counterpart of the scalar
        draws the per-frame paths make): a block of ``count`` draws
        consumes the stream *identically* to ``count`` successive scalar
        ``.random()`` calls — ``uniform_block(name, n)`` followed by
        ``uniform_block(name, m)`` yields the same values as
        ``uniform_block(name, n + m)`` split at ``n``. Callers may
        therefore regroup consecutive draws freely (per frame, per
        burst, per resolved batch) without changing the sampled
        sequence, as long as the total order of draws on the stream is
        preserved. What *defines* that order is the caller's business
        and must be documented at the call site — the bulk fluid
        transport, for instance, pins delay draws to frame seal order
        and loss draws to (delivery, adjacency) order (see
        ``docs/TRANSPORT.md``).
        """
        if count < 0:
            raise ValueError(f"uniform_block count must be >= 0, got {count}")
        return self.stream(name).random(count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(seed={self._master_seed}, streams={len(self._streams)})"
