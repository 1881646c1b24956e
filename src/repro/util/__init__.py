"""Shared utilities: the seeded-RNG discipline (:mod:`repro.util.rng`)."""

from repro.util.rng import ensure_rng

__all__ = ["ensure_rng"]
