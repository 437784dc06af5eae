"""SIMD-style Burst Filter scans (paper Section III-H, Algorithm 6).

The paper accelerates Burst Filter bucket scans with 128-bit AVX2 compares
(four 32-bit IDs per instruction).  Algorithm 6 changes how a scan is
*counted*, not what the filter stores or decides, so
:class:`VectorizedBurstFilter` is a
:class:`~repro.core.burst_filter.BurstFilter` that selects the other of
its two compare-cost models: every bucket scan is charged ``ceil(gamma / 4)``
vector compares (:func:`simd_scan_cost`, ``SIMD_LANES == 4`` for 128-bit
registers and 4-byte IDs) instead of the sequential scan's early-exit
count — the quantity behind figure 19's SIMD deltas.  Both filters scan
with the same masked numpy compare, so storage, admission decisions,
estimates and checkpoints are shared.

:func:`make_hypersistent_simd` builds a
:class:`~repro.core.hypersistent.HypersistentSketch` over it.
"""

from __future__ import annotations

from .burst_filter import (  # noqa: F401 (re-exported cost model)
    SIMD_LANES,
    BurstFilter,
    scalar_scan_cost,
    simd_scan_cost,
)
from .kernels import ENGINE_KERNEL


class VectorizedBurstFilter(BurstFilter):
    """:class:`~repro.core.burst_filter.BurstFilter` charged with
    Algorithm 6's cost model: ``compare_ops`` counts *vector* compares,
    one per ``SIMD_LANES`` cells of every scanned bucket."""

    __slots__ = ()
    lanes = SIMD_LANES

    # perfbench's traced run patches ``window_kernel`` in this class's own
    # namespace (``VectorizedBurstFilter.__dict__``), so it stays bound here
    window_kernel = BurstFilter.window_kernel


def make_hypersistent_simd(
    config, engine: str = ENGINE_KERNEL
) -> "HypersistentSketch":
    """A :class:`HypersistentSketch` whose stage 1 uses the SIMD scan path.

    ``engine`` selects the batch ingestion backend, exactly as on
    :class:`~repro.core.hypersistent.HypersistentSketch`.
    """
    from .hypersistent import HypersistentSketch  # local: avoid import cycle

    sketch = HypersistentSketch(config, engine=engine)
    n_burst = config.burst_buckets()
    if n_burst:
        sketch.burst = VectorizedBurstFilter(
            n_burst,
            config.burst_cells_per_bucket,
            seed=config.seed ^ 0xB0_0001,
        )
    return sketch
