"""Counter-based random streams.

Every sampler takes a numpy Generator; experiments derive one stream per
replicate from (master_seed, stream_id) so results are identical across
runs, platforms and worker counts.  Philox is a pure counter-based
algorithm with a 128-bit key, which we split as (seed, stream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix(a: int, b: int) -> int:
    """splitmix64-style hash of two 64-bit values."""
    x = (a * 0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class RngStream:
    """Identifies one reproducible stream of randomness."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))
