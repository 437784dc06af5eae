"""The paper's primary contribution: the three-stage Hypersistent Sketch."""

from ..common.errors import MergeError
from .burst_filter import BurstFilter
from .cold_filter import ColdFilter
from .config import HOT_COUNTER_BITS, REPLACE_HASH, REPLACE_RANDOM, HSConfig
from .hot_part import HotPart
from .hypersistent import HypersistentSketch
from .kernels import (
    ENGINE_KERNEL,
    ENGINE_SCALAR,
    ENGINES,
    ingest_window,
)
from .meta_filter import ColdFilteredSketch
from .sharded import ShardedSketch
from .sliding import SlidingHypersistentSketch
from .snapshot import SnapshotError, load_sketch, save_sketch
from .simd import (
    SIMD_LANES,
    VectorizedBurstFilter,
    make_hypersistent_simd,
    scalar_scan_cost,
    simd_scan_cost,
)

__all__ = [
    "ENGINES",
    "ENGINE_KERNEL",
    "ENGINE_SCALAR",
    "HOT_COUNTER_BITS",
    "REPLACE_HASH",
    "REPLACE_RANDOM",
    "SIMD_LANES",
    "BurstFilter",
    "ColdFilteredSketch",
    "ColdFilter",
    "HSConfig",
    "HotPart",
    "HypersistentSketch",
    "MergeError",
    "ShardedSketch",
    "SlidingHypersistentSketch",
    "SnapshotError",
    "VectorizedBurstFilter",
    "ingest_window",
    "load_sketch",
    "make_hypersistent_simd",
    "save_sketch",
    "scalar_scan_cost",
    "simd_scan_cost",
]
