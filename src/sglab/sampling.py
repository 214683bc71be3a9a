"""Seeded, splittable random streams, and ``check_int``, the one integer rule.

All randomness in the package flows from one explicit non-negative integer
seed through Philox (counter-based) generators.  Independent child streams
are derived with SeedSequence spawning, so parallel shots and sweep points
are reproducible bit-for-bit regardless of evaluation order.  What is drawn
from a stream lives with its model (``tensor.haar_unitary``,
``decoherence._env_unitaries``); this module makes no draws.
"""
from __future__ import annotations

import numpy as np


def check_int(name: str, value, low: int = 1) -> int:
    """``value`` as an int if it is an integer >= ``low``; numpy integers pass, bools not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """The seed as an int, if it is a non-negative integer."""
    return check_int("seed", seed, 0)


def stream(seed) -> np.random.Generator:
    """Root generator for a seed; a Generator is returned unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(check_seed(seed))))


def split(seed: int, n: int) -> list[np.random.Generator]:
    """n independent child generators derived from one seed."""
    return spawn(np.random.SeedSequence(check_seed(seed)), n)


def spawn(root: np.random.SeedSequence, n: int) -> list[np.random.Generator]:
    """The next n child generators of ``root``.

    Each call continues the child numbering of ``root``, so generators
    taken chunk by chunk are those of one ``split`` of the same seed.
    """
    return [np.random.Generator(np.random.Philox(c)) for c in root.spawn(check_int("n", n))]

