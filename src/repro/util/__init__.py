"""Shared utilities: validation, flop accounting, deterministic seeding.

These helpers are deliberately dependency-free (NumPy only) and are used by
every other subpackage.  Nothing here is specific to the Tucker algorithms.
"""

from repro.util.validation import (
    check_axis,
    check_positive_int,
    check_shape_like,
    prod,
)
from repro.util.flops import (
    syrk_flops,
    eig_flops,
    ttm_flops,
    gram_flops,
)
from repro.util.seeding import rng_for, spawn_seed

__all__ = [
    "check_axis",
    "check_positive_int",
    "check_shape_like",
    "prod",
    "syrk_flops",
    "eig_flops",
    "ttm_flops",
    "gram_flops",
    "rng_for",
    "spawn_seed",
]
