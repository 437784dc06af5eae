"""Shared substrates: hashing, memory accounting, protocols, errors."""

from .bitmem import (
    KB,
    FlagArray,
    MemoryReport,
    cells_for_budget,
    counter_bits_for,
    split_budget,
)
from .errors import (
    BudgetError,
    ConfigError,
    MergeError,
    ReproError,
    SnapshotError,
    StreamError,
)
from .hashing import (
    HASH_VERSION,
    MASK64,
    HashFamily,
    ItemKey,
    canonical_key,
    canonical_keys,
    derive_seed,
    fingerprint,
    mix,
    mix_array,
    splitmix64,
)
from .protocols import PersistenceEstimator, PersistentItemFinder

__all__ = [
    "HASH_VERSION",
    "KB",
    "MASK64",
    "BudgetError",
    "ConfigError",
    "FlagArray",
    "HashFamily",
    "ItemKey",
    "MemoryReport",
    "MergeError",
    "PersistenceEstimator",
    "PersistentItemFinder",
    "ReproError",
    "SnapshotError",
    "StreamError",
    "canonical_key",
    "canonical_keys",
    "cells_for_budget",
    "counter_bits_for",
    "derive_seed",
    "fingerprint",
    "mix",
    "mix_array",
    "split_budget",
    "splitmix64",
]
