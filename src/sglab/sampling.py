"""Seeded, splittable random streams.

All randomness in the package flows from one explicit 64-bit seed through
Philox (counter-based) generators.  Independent child streams are derived
with SeedSequence spawning, so parallel shots and sweep points are
reproducible bit-for-bit regardless of evaluation order.
"""
from __future__ import annotations

import numpy as np


def stream(seed) -> np.random.Generator:
    """Root generator for a 64-bit seed; a Generator is returned unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def split(seed: int, n: int) -> list[np.random.Generator]:
    """n independent child generators derived from one seed."""
    return spawn(np.random.SeedSequence(int(seed)), n)


def spawn(root: np.random.SeedSequence, n: int) -> list[np.random.Generator]:
    """The next n child generators of ``root``.

    Each call continues the child numbering of ``root``, so generators
    taken chunk by chunk are those of one ``split`` of the same seed.
    """
    return [np.random.Generator(np.random.Philox(c)) for c in root.spawn(int(n))]


def random_phase_unitary(d: int, seed) -> np.ndarray:
    """Diagonal unitary of independent uniform phases; ``seed`` as in ``stream``."""
    return np.diag(np.exp(2j * np.pi * stream(seed).random(d)))
