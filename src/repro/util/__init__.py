"""Shared utilities: the seeded-RNG discipline (:mod:`repro.util.rng`)."""
