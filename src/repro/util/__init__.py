"""Shared utilities: the seeded-RNG discipline (:mod:`repro.util.rng`)."""

from repro.util.rng import ensure_rng, spawn_rngs

__all__ = ["ensure_rng", "spawn_rngs"]
