"""Deterministic random streams and standard-Gaussian sampling.

Every algorithm in this package draws its randomness from a
:class:`RandomStream`, a thin wrapper around numpy's counter-based
Philox generator keyed by ``(seed, stream_id)``. The same key yields a
bit-identical sequence on the same build; distinct stream ids yield
statistically independent sequences, so a batch of replications can
pre-assign one stream per run and stay reproducible regardless of
execution order or parallelism.

Gaussian variates come from ``Generator.standard_normal`` (numpy's
ziggurat transform of the Philox bit stream), which is fixed and
deterministic for a given numpy version.
"""

from __future__ import annotations

import numpy as np

from .errors import check_count

_UINT64_MAX = 2**64 - 1


class RandomStream:
    """Reproducible source of random draws, keyed by ``(seed, stream_id)``.

    Parameters
    ----------
    seed : int
        Experiment-level seed in ``[0, 2**64)``.
    stream_id : int, optional
        Replication index in ``[0, 2**64)``. Streams with different ids
        from the same seed are independent.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        check_count(seed, "seed", 0, _UINT64_MAX)
        check_count(stream_id, "stream_id", 0, _UINT64_MAX)
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, shape=None, out: np.ndarray | None = None) -> np.ndarray:
        """Draw standard normals of the given shape, or into ``out``, advancing the stream."""
        return self.gen.standard_normal(shape, out=out)

    def multinomial(self, n: int, pvals: np.ndarray) -> np.ndarray:
        """One multinomial draw of ``n`` trials with cell probabilities ``pvals``."""
        return self.gen.multinomial(n, pvals)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"

