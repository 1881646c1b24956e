"""Random-number-generator discipline.

Every stochastic component in the library accepts a ``seed`` argument that
may be ``None``, an integer, or a ready-made :class:`numpy.random.Generator`.
Centralizing the coercion here keeps experiments reproducible: benchmarks
pass explicit integer seeds.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["ensure_rng"]

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot interpret {type(seed).__name__} as a random seed")
