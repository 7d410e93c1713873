"""Seeded random-number substreams for reproducible experiments.

Each logical consumer (one workload generator per node, the network delay
model, ...) gets its own named substream derived deterministically from the
experiment seed.  Adding a new consumer therefore never perturbs the draws
seen by existing ones — essential when comparing strategies run-for-run.
"""

from __future__ import annotations

import random
from _blake2 import blake2b
from typing import Dict, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    Uses BLAKE2 rather than ``hash()`` so results are stable across Python
    processes and versions (``PYTHONHASHSEED`` does not affect it).
    BLAKE2b is imported from ``_blake2``, as ``random`` takes SHA-512 from
    its own C module: ``hashlib.blake2b`` is that same function (``hashlib``
    never hands out OpenSSL's BLAKE2), but importing ``hashlib``
    also loads ``_hashlib`` and OpenSSL's libcrypto, which every simulation
    process would then carry (about 3.5 MB resident on Linux, CPython 3.11).
    """
    digest = blake2b(
        f"{master_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class RandomSource:
    """A collection of named, independently seeded random streams.

    Example::

        rng = RandomSource(seed=42)
        arrivals = rng.stream("node-0/arrivals")
        delay = arrivals.expovariate(10.0)
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomSource":
        """Derive a child source whose streams are independent of this one's."""
        return RandomSource(derive_seed(self.seed, f"spawn:{name}"))

    # convenience draws on an implicit "default" stream ------------------- #

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival draw from the default stream."""
        return self.stream("default").expovariate(rate)

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] from the default stream."""
        return self.stream("default").randint(low, high)

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct items from the default stream."""
        return self.stream("default").sample(population, k)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomSource(seed={self.seed}, streams={len(self._streams)})"
