"""Deterministic random-number plumbing.

Every stochastic component in this library accepts either an integer seed or
a :class:`numpy.random.Generator`.  Centralising the coercion here keeps the
whole reproduction bit-reproducible: an experiment driver seeds one root
generator and `spawn`s independent streams for data generation, parameter
initialisation and mini-batch shuffling, so changing one consumer never
perturbs another.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def as_generator(rng: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Integers become a fresh PCG64 generator seeded with the value; ``None``
    becomes an unseeded generator (only appropriate in interactive use —
    library code always threads an explicit seed through).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn(rng: int | np.random.Generator | None, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Uses NumPy's ``Generator.spawn`` (SeedSequence-based) so child streams do
    not overlap and, importantly, the i-th child is a pure function of the
    parent state — adding consumers later never reorders earlier streams.
    """
    return list(as_generator(rng).spawn(n))
