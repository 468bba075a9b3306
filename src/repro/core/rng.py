"""Deterministic random-stream management.

Every stochastic component (packet generator, YCSB key chooser, rate
ladder, ...) draws from its own named substream derived from one root seed,
so adding a component never perturbs the draws seen by another and whole
experiments replay bit-identically.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class RandomStreams:
    """A registry of named, independent numpy Generators."""

    def __init__(self, root_seed: int = 0x51C0_BEEF):
        self.root_seed = root_seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the substream for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            seed = np.random.SeedSequence([self.root_seed, _stable_hash(name)])
            generator = np.random.Generator(np.random.PCG64(seed))
            self._streams[name] = generator
        return generator

    def fresh(self, name: str) -> np.random.Generator:
        """A NEW generator for ``name`` at its initial state.

        Unlike :meth:`stream` — which memoizes the generator so later
        callers continue the sequence — every call returns identical
        draws.  Use for measurements that may legitimately re-sample the
        same substream (the hybrid engine's batched rate ladders, whose
        arrays must be a pure function of ``(root_seed, name)`` no
        matter how many window/degradation passes re-run them).  Never
        mix with :meth:`stream` on the same name: the registry stream's
        first draws would silently correlate with every fresh draw.
        """
        seed = np.random.SeedSequence([self.root_seed, _stable_hash(name)])
        return np.random.Generator(np.random.PCG64(seed))

    def fork(self, salt: int) -> "RandomStreams":
        """A new registry whose streams are independent of this one."""
        return RandomStreams(root_seed=_mix(self.root_seed, salt))


def _stable_hash(name: str) -> int:
    """A process-stable 63-bit hash (Python's ``hash`` is salted per run)."""
    value = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value >> 1


def _mix(a: int, b: int) -> int:
    return _stable_hash(f"{a}:{b}")
