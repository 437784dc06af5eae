"""Key-space partitioning for the distributed pipeline runner.

The pipeline scales out the same way :class:`~repro.core.sharded
.ShardedSketch` does: every record is routed by a seeded hash of its
canonical key, so worker ``i`` sees *exactly* the sub-stream that shard
``i`` of a single-process ensemble would ingest.  Because an item's whole
history lands on one worker, the per-worker sketches are not approximate
partial summaries — reassembling them (:meth:`ShardedSketch.coalesce
<repro.core.sharded.ShardedSketch.coalesce>`) is bit-identical to the
single-process run.  That exactness is the pipeline's correctness anchor
and what the merge-equivalence invariant checks.

The router *must* match the ensemble router: same hash family, same
``seed ^ ROUTER_SALT`` derivation.  Keep :data:`ROUTER_SALT` in sync with
:class:`~repro.core.sharded.ShardedSketch` (a test pins the coupling).
"""

from __future__ import annotations

from typing import List, Optional

from ..common.errors import ConfigError
from ..common.hashing import HashFamily
from ..core.config import HSConfig
from ..streams.model import Trace

#: Seed salt of the key-space router (the ``ShardedSketch`` derivation).
ROUTER_SALT = 0x5AAD

#: Floor for a worker's memory slice; below this the sketch sizing
#: degenerates (mirrors the verify battery's sharded-equivalence floor).
MIN_WORKER_BYTES = 1024


def partition_router(seed: int) -> HashFamily:
    """The key-space router for ``seed`` — identical to the one a
    :class:`~repro.core.sharded.ShardedSketch` built with the same seed
    uses, which is what makes partition-then-coalesce exact."""
    return HashFamily(1, seed ^ ROUTER_SALT)


def worker_config(
    memory_bytes: int,
    n_windows: int,
    worker_index: int,
    n_workers: int,
    seed: int = 42,
    window_distinct_hint: Optional[float] = None,
    replacement: Optional[str] = None,
) -> HSConfig:
    """The canonical per-worker sketch configuration.

    Splits the total budget evenly (floored at
    :data:`MIN_WORKER_BYTES`) and derives each worker's seed as
    ``seed + 100 * worker_index`` — the same derivation the verify
    battery's sharded reference runs use, so a pipeline run and its
    single-process reference build literally identical shards.

    ``window_distinct_hint`` must be the *full* trace's per-window
    working set (not the partition's): every worker and the reference
    ensemble must size their Burst Filters from the same number or the
    sketches stop being comparable.
    """
    if n_workers < 1:
        raise ConfigError("need at least one worker")
    if not 0 <= worker_index < n_workers:
        raise ConfigError(
            f"worker index {worker_index} outside [0, {n_workers})"
        )
    config = HSConfig.for_estimation(
        max(MIN_WORKER_BYTES, memory_bytes // n_workers),
        n_windows,
        seed=seed + 100 * worker_index,
        window_distinct_hint=window_distinct_hint,
    )
    if replacement is not None and replacement != config.replacement:
        import dataclasses

        config = dataclasses.replace(config, replacement=replacement)
    return config


def partition_trace(trace: Trace, n_workers: int, seed: int = 42) -> List[Trace]:
    """Split ``trace`` into ``n_workers`` key-disjoint sub-traces.

    Each sub-trace keeps the full window axis (``n_windows`` and window
    numbering are preserved; a worker's empty windows stay empty) and
    its records in stream order, so feeding partition ``i`` to a sketch
    reproduces shard ``i`` of a single-process sharded run exactly.
    """
    if n_workers < 1:
        raise ConfigError("need at least one worker")
    keys, wids = trace.key_column, trace.window_column
    route = partition_router(seed).index_batch(keys, 0, n_workers)
    parts: List[Trace] = []
    for i in range(n_workers):
        mask = route == i
        parts.append(Trace(
            keys[mask],
            wids[mask],
            trace.n_windows,
            name=f"{trace.name}/part{i}of{n_workers}",
        ))
    return parts
