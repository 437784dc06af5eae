"""The invariant catalog: structural and metamorphic properties, as data.

Every property the verification subsystem can check is a named
:class:`Invariant` registered here, in one of three scopes:

* ``window`` — checked after every window boundary of a streaming run
  (monotone estimates, burst-filter occupancy, clock consistency, ...);
* ``final`` — checked once per run against the exact oracle (one-sided
  error directions, report/query consistency, global bounds);
* ``trace`` — self-contained metamorphic properties that build their own
  sketches from a trace (scalar ≡ kernel ≡ sharded-merge equivalence,
  snapshot round-trips, sliding-window coverage bounds).

The catalog is consumed three ways: the fuzz driver runs every applicable
entry per generated case, ``repro verify`` runs them against a saved trace,
and the hypothesis property tests replay individual entries on shrunken
inputs.  Keeping the properties *here* — not inline in tests — is what lets
a failure found by any of the three be replayed by the others.

Error-direction notes (why some checks are conditional): the Hypersistent
Sketch never underestimates **until** its Hot Part evicts an item (the
evicted item's estimate falls back to ``delta1 + delta2``), so one-sided
and monotonicity checks key on the ``replacements`` counter.  On-Off v1 is
unconditionally one-sided; the CM baseline is not (Bloom false positives
suppress increments), so no one-sided invariant applies to it.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from ..baselines import OnOffSketchV1
from ..core import (
    ENGINES,
    HSConfig,
    HypersistentSketch,
    ShardedSketch,
    SlidingHypersistentSketch,
    load_sketch,
    make_hypersistent_simd,
    save_sketch,
)
from ..persist import encode_state
from ..streams.model import Trace
from ..streams.oracle import exact_persistence

#: Cap on per-boundary tracked keys and equivalence query sweeps.
DEFAULT_KEY_SAMPLE = 64
_EQUIVALENCE_KEY_CAP = 2048


@dataclass
class VerifyConfig:
    """Knobs shared by every invariant check in one campaign."""

    memory_bytes: int = 8 * 1024
    seed: int = 42
    key_sample: int = DEFAULT_KEY_SAMPLE
    n_shards: int = 4

    def to_dict(self) -> dict:
        return {
            "memory_bytes": self.memory_bytes,
            "seed": self.seed,
            "key_sample": self.key_sample,
            "n_shards": self.n_shards,
        }


@dataclass
class Violation:
    """One observed breach of a named invariant (machine-readable)."""

    invariant: str
    message: str
    window: Optional[int] = None
    key: Optional[int] = None
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: Dict[str, object] = {
            "invariant": self.invariant,
            "message": self.message,
        }
        if self.window is not None:
            out["window"] = self.window
        if self.key is not None:
            out["key"] = self.key
        if self.details:
            out["details"] = dict(self.details)
        return out

    def __str__(self) -> str:
        where = f" @window {self.window}" if self.window is not None else ""
        return f"[{self.invariant}]{where} {self.message}"


class RunContext:
    """Mutable bookkeeping handed to window/final-scope checks.

    ``estimates`` holds the tracked keys' estimates at the boundary being
    checked; ``prev_estimates`` the previous boundary's snapshot — the pair
    is what monotonicity checks compare.  ``truth`` is populated (from the
    exact oracle) before final-scope checks only.
    """

    def __init__(self, sketch, trace: Trace, tracked: List[int]):
        self.sketch = sketch
        self.trace = trace
        self.tracked = tracked
        self.windows_closed = 0
        self.estimates: Dict[int, int] = {}
        self.prev_estimates: Dict[int, int] = {}
        self.prev_replacements = 0
        self.truth: Optional[Dict[int, int]] = None


@dataclass(frozen=True)
class Invariant:
    """One registered property: metadata plus its check function."""

    name: str
    scope: str  # "window" | "final" | "trace"
    description: str
    check: Callable
    applies: Callable = lambda sketch: True


#: The catalog, in registration order.
CATALOG: Dict[str, Invariant] = {}


def register_invariant(
    name: str, scope: str, description: str, applies: Callable = None
):
    """Class decorator-style registration of an invariant check."""
    if scope not in ("window", "final", "trace"):
        raise ValueError(f"unknown invariant scope: {scope}")

    def wrap(fn: Callable) -> Callable:
        CATALOG[name] = Invariant(
            name=name,
            scope=scope,
            description=description,
            check=fn,
            applies=applies or (lambda sketch: True),
        )
        return fn

    return wrap


def catalog_names(scope: Optional[str] = None) -> List[str]:
    """Registered invariant names, optionally filtered to one scope."""
    return [
        name for name, inv in CATALOG.items()
        if scope is None or inv.scope == scope
    ]


def sample_keys(trace: Trace, cap: int) -> List[int]:
    """A deterministic, evenly spread sample of the trace's distinct keys."""
    keys = np.unique(trace.key_column).tolist()
    if len(keys) <= cap:
        return keys
    step = len(keys) / cap
    return [keys[int(i * step)] for i in range(cap)]


def _is_hs(sketch) -> bool:
    return isinstance(sketch, HypersistentSketch)


def _bounded_estimator(sketch) -> bool:
    # sketches whose estimates provably stay within the elapsed windows
    return isinstance(sketch, (HypersistentSketch, OnOffSketchV1))


# ----------------------------------------------------------------------
# window scope
# ----------------------------------------------------------------------
@register_invariant(
    "structural-state", "window",
    "Every stage's verify_state() self-check passes at each boundary",
    applies=lambda sketch: hasattr(sketch, "verify_state"),
)
def _check_structural(ctx: RunContext) -> List[Violation]:
    return [
        Violation("structural-state", problem, window=ctx.windows_closed - 1)
        for problem in ctx.sketch.verify_state()
    ]


@register_invariant(
    "burst-empty-at-boundary", "window",
    "The Burst Filter drains completely at every window boundary",
    applies=lambda sketch: _is_hs(sketch) and sketch.burst is not None,
)
def _check_burst_empty(ctx: RunContext) -> List[Violation]:
    held = len(ctx.sketch.burst)
    if held:
        return [Violation(
            "burst-empty-at-boundary",
            f"burst filter still holds {held} IDs after end_window",
            window=ctx.windows_closed - 1,
            details={"held": held},
        )]
    return []


@register_invariant(
    "burst-occupancy-bounds", "window",
    "Burst Filter bucket fills never exceed gamma cells per bucket",
    applies=lambda sketch: _is_hs(sketch) and sketch.burst is not None
    and hasattr(sketch.burst, "bucket_fills"),
)
def _check_burst_occupancy(ctx: RunContext) -> List[Violation]:
    burst = ctx.sketch.burst
    out = []
    for b, fill in enumerate(burst.bucket_fills()):
        if fill > burst.cells_per_bucket:
            out.append(Violation(
                "burst-occupancy-bounds",
                f"bucket {b} fill {fill} > gamma "
                f"{burst.cells_per_bucket}",
                window=ctx.windows_closed - 1,
                details={"bucket": b, "fill": int(fill)},
            ))
    return out


@register_invariant(
    "window-clock", "window",
    "The sketch's window counter tracks the number of closed windows",
    applies=lambda sketch: hasattr(sketch, "window"),
)
def _check_window_clock(ctx: RunContext) -> List[Violation]:
    if ctx.sketch.window != ctx.windows_closed:
        return [Violation(
            "window-clock",
            f"sketch window clock {ctx.sketch.window} != closed windows "
            f"{ctx.windows_closed}",
            window=ctx.windows_closed - 1,
        )]
    return []


def _estimate_ceiling(sketch, windows: int) -> int:
    """The sketch's provable estimate upper bound after ``windows`` windows.

    On-Off v1 increments each counter at most once per window, so the
    tight ``windows`` bound holds.  HS is looser: cold-stage collisions
    can saturate the thresholds early, promoting an item with base
    ``delta1 + delta2`` ahead of its true count, and each Hot Part
    replacement can add one more (``per = min_per + 1``).  By induction
    the Hot Part's stored ``per`` never exceeds ``windows +
    replacements``, giving ``delta1 + delta2 + windows + replacements``.
    """
    if _is_hs(sketch):
        return (sketch.cold.delta1 + sketch.cold.delta2 + windows
                + sketch.hot.replacements)
    return windows


@register_invariant(
    "estimate-window-bound", "window",
    "Estimates stay within the sketch's provable ceiling (windows closed "
    "for On-Off; plus delta1+delta2 and replacement slack for HS) at "
    "every boundary",
    applies=_bounded_estimator,
)
def _check_estimate_window_bound(ctx: RunContext) -> List[Violation]:
    ceiling = _estimate_ceiling(ctx.sketch, ctx.windows_closed)
    out = []
    for key, estimate in ctx.estimates.items():
        if not 0 <= estimate <= ceiling:
            out.append(Violation(
                "estimate-window-bound",
                f"estimate {estimate} for key {key} outside "
                f"[0, {ceiling}] after {ctx.windows_closed} windows",
                window=ctx.windows_closed - 1,
                key=key,
                details={"estimate": estimate, "ceiling": ceiling,
                         "windows": ctx.windows_closed},
            ))
    return out


@register_invariant(
    "monotone-unless-evicted", "window",
    "Estimates never decrease across a boundary unless the Hot Part "
    "evicted an item that window",
    applies=_is_hs,
)
def _check_monotone(ctx: RunContext) -> List[Violation]:
    replacements = ctx.sketch.hot.replacements
    if replacements != ctx.prev_replacements:
        return []  # an eviction legitimately lowers the victim's estimate
    out = []
    for key, estimate in ctx.estimates.items():
        before = ctx.prev_estimates.get(key)
        if before is not None and estimate < before:
            out.append(Violation(
                "monotone-unless-evicted",
                f"estimate for key {key} fell {before} -> {estimate} "
                f"with no hot eviction",
                window=ctx.windows_closed - 1,
                key=key,
                details={"before": before, "after": estimate},
            ))
    return out


# ----------------------------------------------------------------------
# final scope
# ----------------------------------------------------------------------
@register_invariant(
    "one-sided-error", "final",
    "Estimates never fall below exact persistence (On-Off always; HS "
    "whenever its Hot Part never evicted)",
    applies=_bounded_estimator,
)
def _check_one_sided(ctx: RunContext) -> List[Violation]:
    sketch = ctx.sketch
    if _is_hs(sketch) and sketch.hot.replacements > 0:
        return []  # eviction voids the guarantee; nothing to check
    out = []
    for key, p in ctx.truth.items():
        estimate = sketch.query(key)
        if estimate < p:
            out.append(Violation(
                "one-sided-error",
                f"key {key} underestimated: {estimate} < exact {p}",
                key=key,
                details={"estimate": estimate, "truth": p},
            ))
    return out


@register_invariant(
    "estimate-final-bound", "final",
    "No final estimate exceeds the sketch's provable ceiling for the "
    "trace's window count",
    applies=_bounded_estimator,
)
def _check_final_bound(ctx: RunContext) -> List[Violation]:
    ceiling = _estimate_ceiling(ctx.sketch, ctx.trace.n_windows)
    out = []
    for key in ctx.truth:
        estimate = ctx.sketch.query(key)
        if not 0 <= estimate <= ceiling:
            out.append(Violation(
                "estimate-final-bound",
                f"final estimate {estimate} for key {key} outside "
                f"[0, {ceiling}]",
                key=key,
                details={"estimate": estimate, "ceiling": ceiling,
                         "n_windows": ctx.trace.n_windows},
            ))
    return out


@register_invariant(
    "report-query-consistency", "final",
    "report() values match query() for every reported item, and raising "
    "the threshold only shrinks the report",
    applies=_is_hs,
)
def _check_report_consistency(ctx: RunContext) -> List[Violation]:
    sketch = ctx.sketch
    out = []
    full = sketch.report(1)
    for key, value in full.items():
        if value < 1:
            out.append(Violation(
                "report-query-consistency",
                f"report(1) lists key {key} below threshold: {value}",
                key=key,
            ))
        estimate = sketch.query(key)
        if estimate != value:
            out.append(Violation(
                "report-query-consistency",
                f"key {key}: report says {value}, query says {estimate}",
                key=key,
                details={"report": value, "query": estimate},
            ))
    t_mid = max(1, ctx.trace.n_windows // 2)
    mid = sketch.report(t_mid)
    for key, value in mid.items():
        if value < t_mid or full.get(key) != value:
            out.append(Violation(
                "report-query-consistency",
                f"report({t_mid}) entry {key}={value} inconsistent with "
                f"report(1)={full.get(key)}",
                key=key,
                details={"threshold": t_mid, "value": value,
                         "full_value": full.get(key)},
            ))
    return out


# ----------------------------------------------------------------------
# trace scope (metamorphic: build sketches, compare paths)
# ----------------------------------------------------------------------
def _estimation_config(trace: Trace, config: VerifyConfig) -> HSConfig:
    return HSConfig.for_estimation(
        config.memory_bytes, trace.n_windows, seed=config.seed,
        window_distinct_hint=trace.mean_window_distinct(),
    )


def _scalar_feed(sketch, trace: Trace):
    for _, items in trace.windows():
        for item in items:
            sketch.insert(item)
        sketch.end_window()
    return sketch


def _window_feed(sketch, trace: Trace):
    for window_keys in trace.window_arrays():
        sketch.insert_window(window_keys)
    return sketch


def _diff_keyed(name, reference, candidate, keys, label_a, label_b):
    """Violations for query disagreements between two sketches."""
    out = []
    for key in keys:
        a, b = reference.query(key), candidate.query(key)
        if a != b:
            out.append(Violation(
                name,
                f"key {key}: {label_a} estimate {a} != {label_b} "
                f"estimate {b}",
                key=key,
                details={label_a: a, label_b: b},
            ))
    return out


@register_invariant(
    "kernel-equivalence", "trace",
    "The whole-window SoA kernel backend (engine=\"kernel\") matches the "
    "scalar oracle bit-for-bit: counters, estimates, reports, and the "
    "serialized snapshot bytes",
)
def _check_kernel_equivalence(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    hs_config = _estimation_config(trace, config)
    scalar = _scalar_feed(HypersistentSketch(hs_config), trace)
    kernel = _window_feed(
        HypersistentSketch(hs_config, engine="kernel"), trace)
    simd_kernel = _window_feed(make_hypersistent_simd(hs_config), trace)
    out = []
    # stats first: queries below move the hash-op counters, and they hit
    # the scalar sketch once per comparison (twice in total)
    if scalar.stats() != kernel.stats():
        out.append(Violation(
            "kernel-equivalence",
            "scalar and kernel stats() diverge",
            details={"scalar": scalar.stats(), "kernel": kernel.stats()},
        ))
    # snapshot bytes: the engine is runtime-only, so the serialized state
    # of a kernel-fed sketch must equal the scalar-fed sketch's byte for
    # byte (this is the persistence acceptance bar for the backend)
    if encode_state(scalar.state_dict()) != encode_state(
            kernel.state_dict()):
        out.append(Violation(
            "kernel-equivalence",
            "scalar and kernel snapshot bytes diverge",
        ))
    keys = sample_keys(trace, _EQUIVALENCE_KEY_CAP)
    out += _diff_keyed("kernel-equivalence", scalar, kernel, keys,
                       "scalar", "kernel")
    out += _diff_keyed("kernel-equivalence", scalar, simd_kernel, keys,
                       "scalar", "simd-kernel")
    if scalar.report(1) != kernel.report(1):
        out.append(Violation(
            "kernel-equivalence",
            "scalar and kernel report(1) diverge",
        ))
    return out


@register_invariant(
    "sharded-merge-equivalence", "trace",
    "Sharded ingestion (scalar, window) agrees with itself and "
    "its report is the disjoint union of the shards' reports",
)
def _check_sharded_equivalence(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    per_shard = max(1024, config.memory_bytes // config.n_shards)

    def build() -> ShardedSketch:
        return ShardedSketch(
            lambda i: HypersistentSketch(HSConfig.for_estimation(
                per_shard, trace.n_windows, seed=config.seed + 100 * i,
                window_distinct_hint=trace.mean_window_distinct(),
            )),
            n_shards=config.n_shards,
            seed=config.seed,
        )

    scalar = _scalar_feed(build(), trace)
    windowed = build()
    for window_keys in trace.window_arrays():
        windowed.insert_window(window_keys)
    keys = sample_keys(trace, _EQUIVALENCE_KEY_CAP)
    out = _diff_keyed("sharded-merge-equivalence", scalar, windowed, keys,
                      "scalar", "window")
    merged = scalar.report(1)
    shard_reports = [shard.report(1) for shard in scalar.shards]
    if sum(len(r) for r in shard_reports) != len(merged):
        out.append(Violation(
            "sharded-merge-equivalence",
            "shard reports overlap: routing should partition the key space",
            details={"merged": len(merged),
                     "shards": [len(r) for r in shard_reports]},
        ))
    for shard_report in shard_reports:
        for key, value in shard_report.items():
            if merged.get(key) != value:
                out.append(Violation(
                    "sharded-merge-equivalence",
                    f"merged report drops or rewrites key {key}",
                    key=key,
                    details={"shard": value, "merged": merged.get(key)},
                ))
    return out


@register_invariant(
    "snapshot-roundtrip", "trace",
    "A mid-stream save/load is invisible: the restored sketch finishes the "
    "stream with bit-identical estimates and reports",
)
def _check_snapshot_roundtrip(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    hs_config = _estimation_config(trace, config)
    original = HypersistentSketch(hs_config)
    arrays = trace.window_arrays()
    mid = trace.n_windows // 2
    for window_keys in arrays[:mid]:
        original.insert_window(window_keys)
    fd, path = tempfile.mkstemp(suffix=".sketch")
    os.close(fd)
    try:
        save_sketch(original, path)
        restored = load_sketch(path, HypersistentSketch)
    finally:
        os.unlink(path)
    keys = sample_keys(trace, _EQUIVALENCE_KEY_CAP)
    out = _diff_keyed("snapshot-roundtrip", original, restored, keys,
                      "original", "restored")  # restore is lossless
    for window_keys in arrays[mid:]:
        original.insert_window(window_keys)
        restored.insert_window(window_keys)
    out += _diff_keyed("snapshot-roundtrip", original, restored, keys,
                       "original", "restored-resumed")
    if original.report(1) != restored.report(1):
        out.append(Violation(
            "snapshot-roundtrip",
            "reports diverge after resuming from a snapshot",
        ))
    if original.stats() != restored.stats():
        out.append(Violation(
            "snapshot-roundtrip",
            "stats() diverge after resuming from a snapshot",
        ))
    return out


@register_invariant(
    "snapshot-roundtrip-wrappers", "trace",
    "Sharded and sliding wrappers survive a mid-stream codec round-trip: "
    "the restored wrapper finishes the stream bit-identical to the original",
)
def _check_wrapper_roundtrip(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    from ..persist import decode_state, encode_state, restore_tagged, \
        tagged_state

    if trace.n_windows < 2:
        return []
    per_shard = max(1024, config.memory_bytes // config.n_shards)
    sharded = ShardedSketch(
        lambda i: HypersistentSketch(HSConfig.for_estimation(
            per_shard, trace.n_windows, seed=config.seed + 100 * i,
            window_distinct_hint=trace.mean_window_distinct(),
        )),
        n_shards=config.n_shards,
        seed=config.seed,
    )
    horizon = max(2, min(8, trace.n_windows))
    sliding = SlidingHypersistentSketch(
        config.memory_bytes, horizon=horizon, seed=config.seed
    )
    arrays = trace.window_arrays()
    window_items = dict(trace.windows())
    mid = trace.n_windows // 2
    for wid in range(mid):
        sharded.insert_window(arrays[wid])
        for item in window_items[wid]:
            sliding.insert(item)
        sliding.end_window()
    # the same encode -> decode path the checkpoint files go through,
    # minus the filesystem
    pairs = [
        ("sharded", sharded,
         restore_tagged(decode_state(encode_state(tagged_state(sharded))))),
        ("sliding", sliding,
         restore_tagged(decode_state(encode_state(tagged_state(sliding))))),
    ]
    keys = sample_keys(trace, _EQUIVALENCE_KEY_CAP)
    out = []
    for label, original, restored in pairs:
        for wid in range(mid, trace.n_windows):
            if label == "sharded":
                original.insert_window(arrays[wid])
                restored.insert_window(arrays[wid])
            else:
                for item in window_items[wid]:
                    original.insert(item)
                    restored.insert(item)
                original.end_window()
                restored.end_window()
        out += _diff_keyed(
            "snapshot-roundtrip-wrappers", original, restored, keys,
            label, f"{label}-restored",
        )
        if original.report(1) != restored.report(1):
            out.append(Violation(
                "snapshot-roundtrip-wrappers",
                f"{label} reports diverge after a codec round-trip",
            ))
    return out


@register_invariant(
    "checkpoint-resume", "trace",
    "Resuming from an on-disk checkpoint replays the tail to estimates "
    "bit-identical to an uninterrupted run, and any corrupted checkpoint "
    "raises SnapshotError instead of restoring garbage",
)
def _check_checkpoint_resume(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    from ..common.errors import SnapshotError
    from ..persist import resume, save_run_checkpoint

    if trace.n_windows < 2:
        return []
    hs_config = _estimation_config(trace, config)
    original = _window_feed(HypersistentSketch(hs_config), trace)
    partial = HypersistentSketch(hs_config)
    arrays = trace.window_arrays()
    mid = trace.n_windows // 2
    for window_keys in arrays[:mid]:
        partial.insert_window(window_keys)
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    out = []
    try:
        save_run_checkpoint(partial, path, mid, trace=trace)
        resumed = resume(path, trace)
        keys = sample_keys(trace, _EQUIVALENCE_KEY_CAP)
        out += _diff_keyed("checkpoint-resume", original, resumed, keys,
                           "uninterrupted", "resumed")
        if original.report(1) != resumed.report(1):
            out.append(Violation(
                "checkpoint-resume",
                "reports diverge after resuming from a checkpoint",
            ))
        # corruption must fail loudly, never restore a wrong sketch
        with open(path, "rb") as fh:
            good = fh.read()
        flipped = bytearray(good)
        flipped[len(flipped) // 2] ^= 0x40
        for tag, bad in (("truncated", good[:len(good) // 2]),
                         ("bit-flipped", bytes(flipped))):
            with open(path, "wb") as fh:
                fh.write(bad)
            try:
                resume(path, trace)
            except SnapshotError:
                pass
            else:
                out.append(Violation(
                    "checkpoint-resume",
                    f"{tag} checkpoint restored without SnapshotError",
                ))
    finally:
        os.unlink(path)
    return out


@register_invariant(
    "sliding-coverage-bounds", "trace",
    "Sliding-window estimates never exceed the panels' provable ceiling, "
    "and (absent evictions) an every-window item is never estimated "
    "below the advertised coverage",
)
def _check_sliding_bounds(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    if trace.n_windows < 2:
        return []
    horizon = min(8, trace.n_windows) if trace.n_windows >= 2 else 2
    horizon = max(2, horizon)
    sw = SlidingHypersistentSketch(
        config.memory_bytes, horizon=horizon, seed=config.seed
    )
    keys = sample_keys(trace, config.key_sample)
    out = []
    for wid, items in trace.windows():
        for item in items:
            sw.insert(item)
        sw.end_window()
        for problem in sw.verify_state():
            out.append(Violation(
                "sliding-coverage-bounds", problem, window=wid
            ))
        ceiling = sw.query_ceiling()
        for key in keys:
            estimate = sw.query(key)
            if not 0 <= estimate <= ceiling:
                out.append(Violation(
                    "sliding-coverage-bounds",
                    f"key {key}: estimate {estimate} outside the panels' "
                    f"ceiling [0, {ceiling}]",
                    window=wid,
                    key=key,
                    details={"estimate": estimate, "ceiling": ceiling},
                ))
    if sw.window >= horizon and sw.panel_replacements == 0:
        truth = exact_persistence(trace)
        for key, p in truth.items():
            if p == trace.n_windows:  # appears in *every* window
                estimate = sw.query(key)
                if estimate < sw.coverage:
                    out.append(Violation(
                        "sliding-coverage-bounds",
                        f"every-window key {key}: estimate {estimate} "
                        f"below coverage {sw.coverage} with no evictions",
                        key=key,
                        details={"estimate": estimate,
                                 "coverage": sw.coverage},
                    ))
    for key, reported in sw.report(1).items():
        if reported != sw.query(key):
            out.append(Violation(
                "sliding-coverage-bounds",
                f"reported key {key}: report value {reported} != "
                f"query estimate {sw.query(key)}",
                key=key,
                details={"report": reported, "query": sw.query(key)},
            ))
    return out


@register_invariant(
    "explain-consistency", "trace",
    "explain(key) is counter-neutral, matches query() exactly, reports the "
    "key's actual resolving stage, and decomposes into burst+cold+hot — "
    "for scalar and kernel engines under both replacement policies",
)
def _check_explain_consistency(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    import dataclasses

    from ..core.config import REPLACE_HASH, REPLACE_RANDOM
    from ..obs.trace import TraceRecorder

    name = "explain-consistency"
    base = _estimation_config(trace, config)
    keys = sample_keys(trace, config.key_sample)
    out = []
    for policy in (REPLACE_HASH, REPLACE_RANDOM):
        hs_config = dataclasses.replace(base, replacement=policy)
        builds = []
        for label, engine, feed in (
            ("scalar", "scalar", _scalar_feed),
            ("kernel", "kernel", _window_feed),
        ):
            sketch = HypersistentSketch(hs_config, engine=engine)
            TraceRecorder().attach(sketch)  # events must not skew anything
            builds.append((f"{label}/{policy}", feed(sketch, trace)))
        explanations = {}
        for label, sketch in builds:
            # explain() must be a pure read: snapshot the serialized state
            # around the whole sweep (queries below DO move hash_ops, so
            # they stay outside the snapshot window)
            before = encode_state(sketch.state_dict())
            explained = [(key, sketch.explain(key)) for key in keys]
            if encode_state(sketch.state_dict()) != before:
                out.append(Violation(
                    name, f"{label}: explain() mutated sketch state",
                ))
            explanations[label] = explained
            for key, ex in explained:
                estimate = sketch.query(key)
                if ex.estimate != estimate:
                    out.append(Violation(
                        name,
                        f"{label}: explain estimate {ex.estimate} != "
                        f"query {estimate} for key {key}",
                        key=key,
                        details={"explain": ex.estimate,
                                 "query": estimate},
                    ))
                stage = sketch.resolving_stage(key)
                if ex.stage != stage:
                    out.append(Violation(
                        name,
                        f"{label}: explain stage {ex.stage!r} != "
                        f"resolving stage {stage!r} for key {key}",
                        key=key,
                    ))
                if ex.hot_resident != sketch.hot.contains(key):
                    out.append(Violation(
                        name,
                        f"{label}: explain hot_resident "
                        f"{ex.hot_resident} disagrees with the Hot Part "
                        f"for key {key}",
                        key=key,
                    ))
                parts = ex.decomposition()
                if sum(parts.values()) != ex.estimate:
                    out.append(Violation(
                        name,
                        f"{label}: decomposition {parts} does not sum to "
                        f"estimate {ex.estimate} for key {key}",
                        key=key,
                    ))
        # engines are bit-identical, so their audits must agree too
        scalar_ex = explanations[f"scalar/{policy}"]
        kernel_ex = explanations[f"kernel/{policy}"]
        for (key, a), (_, b) in zip(scalar_ex, kernel_ex):
            if (a.estimate, a.stage, a.hot_resident) != \
                    (b.estimate, b.stage, b.hot_resident):
                out.append(Violation(
                    name,
                    f"scalar and kernel explains diverge for key {key} "
                    f"({policy}): ({a.estimate}, {a.stage}) vs "
                    f"({b.estimate}, {b.stage})",
                    key=key,
                ))
    # mid-window audit: a key sitting in the Burst Filter must show up as
    # pending and still reconcile with query()'s +1
    if keys:
        sketch = _scalar_feed(HypersistentSketch(base), trace)
        if sketch.burst is not None:
            probe = keys[0]
            sketch.insert(probe)
            ex = sketch.explain(probe)
            if ex.pending_burst != 1:
                out.append(Violation(
                    name,
                    f"mid-window explain reports pending_burst "
                    f"{ex.pending_burst}, expected 1",
                    key=probe,
                ))
            if ex.estimate != sketch.query(probe):
                out.append(Violation(
                    name,
                    f"mid-window explain estimate {ex.estimate} != query "
                    f"{sketch.query(probe)}",
                    key=probe,
                ))
    return out


@register_invariant(
    "merge-equivalence", "trace",
    "Key-partitioned worker sketches coalesce to the single-process "
    "sharded run bit-for-bit, and HypersistentSketch.merge is "
    "commutative and associative on disjoint partitions",
)
def _check_merge_equivalence(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    import dataclasses

    from ..core.config import REPLACE_RANDOM
    from ..distributed import partition_trace, worker_config

    name = "merge-equivalence"
    out: List[Violation] = []
    hint = trace.mean_window_distinct()
    n_workers = config.n_shards
    parts = partition_trace(trace, n_workers, config.seed)

    for policy in (None, REPLACE_RANDOM):
        for engine in ("scalar", "kernel"):
            label = f"{policy or 'hash'}/{engine}"
            configs = [
                worker_config(
                    config.memory_bytes, trace.n_windows, i, n_workers,
                    seed=config.seed, window_distinct_hint=hint,
                    replacement=policy,
                )
                for i in range(n_workers)
            ]
            reference = ShardedSketch(
                lambda i: HypersistentSketch(configs[i]),
                n_shards=n_workers, seed=config.seed, engine=engine,
            )
            workers = [
                HypersistentSketch(configs[i], engine=engine)
                for i in range(n_workers)
            ]
            for wid, window_keys in enumerate(trace.window_arrays()):
                reference.insert_window(window_keys)
                for worker, part_arrays in zip(
                    workers, (p.window_arrays() for p in parts)
                ):
                    worker.insert_window(part_arrays[wid])
            coalesced = ShardedSketch.coalesce(workers, seed=config.seed)
            ref_bytes = encode_state(reference.state_dict())
            if encode_state(coalesced.state_dict()) != ref_bytes:
                out.append(Violation(
                    name,
                    f"coalesced workers != single-process sharded run "
                    f"({label}): snapshot bytes diverge",
                ))
            keys = sample_keys(trace, _EQUIVALENCE_KEY_CAP)
            out += _diff_keyed(name, reference, coalesced, keys,
                               f"sharded-{label}", f"coalesced-{label}")
            if reference.report(1) != coalesced.report(1):
                out.append(Violation(
                    name,
                    f"coalesced report(1) diverges from the "
                    f"single-process run ({label})",
                ))
            if reference.stats() != coalesced.stats():
                out.append(Violation(
                    name,
                    f"coalesced stats() diverge from the single-process "
                    f"run ({label}): a stage counter double-counts",
                    details={"reference": reference.stats(),
                             "coalesced": coalesced.stats()},
                ))

    # merge() algebra: same-config sketches over disjoint partitions
    shared = dataclasses.replace(
        _estimation_config(trace, config), seed=config.seed
    )
    sketches = [
        _window_feed(HypersistentSketch(shared), part)
        for part in partition_trace(trace, 3, config.seed)
    ]
    a, b, c = (
        HypersistentSketch.from_state(s.state_dict()) for s in sketches
    )
    ab = encode_state(a.merge(b).state_dict())
    ba = encode_state(b.merge(a).state_dict())
    if ab != ba:
        out.append(Violation(name, "merge is not commutative"))
    left = encode_state(a.merge(b).merge(c).state_dict())
    right = encode_state(a.merge(b.merge(c)).state_dict())
    spread = encode_state(a.merge(b, c).state_dict())
    if left != right or left != spread:
        out.append(Violation(name, "merge is not associative"))
    return out


@register_invariant(
    "pipeline-crash-recovery", "trace",
    "A pipeline worker crash mid-window resumes from its checkpoint and "
    "coalesces to the uninterrupted run's exact result; corrupt worker "
    "checkpoints are quarantined, never merged",
)
def _check_pipeline_crash_recovery(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    from ..common.errors import SnapshotError
    from ..distributed import run_pipeline_inprocess

    name = "pipeline-crash-recovery"
    out: List[Violation] = []
    if trace.n_windows < 2:
        return out
    n_workers = min(config.n_shards, 4)
    kill_window = trace.n_windows // 2
    with tempfile.TemporaryDirectory() as clean_dir:
        clean = run_pipeline_inprocess(
            trace, config.memory_bytes, n_workers=n_workers,
            out_dir=clean_dir, seed=config.seed, every=2,
        )
    clean_bytes = encode_state(clean.sketch.state_dict())
    with tempfile.TemporaryDirectory() as crash_dir:
        crashed = run_pipeline_inprocess(
            trace, config.memory_bytes, n_workers=n_workers,
            out_dir=crash_dir, seed=config.seed, every=2,
            kill_at=(0, kill_window),
        )
    if crashed.report.restarts != 1:
        out.append(Violation(
            name,
            f"expected exactly one worker restart, saw "
            f"{crashed.report.restarts}",
        ))
    if encode_state(crashed.sketch.state_dict()) != clean_bytes:
        out.append(Violation(
            name,
            "resume-then-merge after a mid-window crash diverges from "
            "the uninterrupted run",
        ))
    keys = sample_keys(trace, config.key_sample)
    out += _diff_keyed(name, clean.sketch, crashed.sketch, keys,
                       "uninterrupted", "recovered")
    # a corrupt checkpoint must be quarantined on resume, never merged
    with tempfile.TemporaryDirectory() as dirty_dir:
        from ..distributed import build_worker_specs, ingest_partition

        specs = build_worker_specs(
            trace, config.memory_bytes, n_workers, dirty_dir,
            seed=config.seed, every=2, simulate_kill=True,
        )
        victim = Path(specs[0].checkpoint_path)
        victim.write_bytes(b"torn checkpoint \x00\x7f garbage")
        try:
            read_back = ingest_partition(specs[0])
        except SnapshotError:
            pass
        else:
            out.append(Violation(
                name,
                "worker resumed from a corrupt checkpoint without "
                "raising SnapshotError",
                details={"windows": read_back.window},
            ))
        recovered = run_pipeline_inprocess(
            trace, config.memory_bytes, n_workers=n_workers,
            out_dir=dirty_dir, seed=config.seed, every=2,
        )
        if not any(victim.parent.glob(victim.name + ".quarantined*")):
            out.append(Violation(
                name, "corrupt checkpoint was not quarantined aside",
            ))
        if recovered.report.workers[0].restarts < 1:
            out.append(Violation(
                name,
                "pipeline did not record the restart that recovered "
                "from the corrupt checkpoint",
            ))
        if encode_state(recovered.sketch.state_dict()) != clean_bytes:
            out.append(Violation(
                name,
                "recovery from a quarantined checkpoint diverges from "
                "the uninterrupted run",
            ))
    return out


@register_invariant(
    "sliding-engine-equivalence", "trace",
    "The sliding wrapper's batch paths (insert_window / insert_batch on "
    "every engine) match its record-at-a-time oracle "
    "bit-for-bit: snapshot bytes, estimates, and reports",
)
def _check_sliding_engine_equivalence(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    name = "sliding-engine-equivalence"
    horizon = max(2, min(8, trace.n_windows))

    def build(engine: str) -> SlidingHypersistentSketch:
        return SlidingHypersistentSketch(
            config.memory_bytes, horizon=horizon, seed=config.seed,
            engine=engine,
        )

    reference = _scalar_feed(build("scalar"), trace)
    candidates = [
        (f"{engine}-window", _window_feed(build(engine), trace))
        for engine in ENGINES
    ]
    # a split feed exercises insert_batch + end_window (open-window path)
    split = build("kernel")
    for window_keys in trace.window_arrays():
        mid = len(window_keys) // 2
        split.insert_batch(window_keys[:mid])
        split.insert_batch(window_keys[mid:])
        split.end_window()
    candidates.append(("kernel-split-batch", split))

    out = []
    # snapshot bytes first: the query sweeps below move the panels'
    # hash-op counters, which are part of the serialized state
    reference_bytes = encode_state(reference.state_dict())
    for label, candidate in candidates:
        if encode_state(candidate.state_dict()) != reference_bytes:
            out.append(Violation(
                name,
                f"scalar-fed and {label}-fed snapshot bytes diverge",
            ))
    keys = sample_keys(trace, _EQUIVALENCE_KEY_CAP)
    for label, candidate in candidates:
        out += _diff_keyed(name, reference, candidate, keys,
                           "scalar", label)
        if reference.report(1) != candidate.report(1):
            out.append(Violation(
                name, f"scalar and {label} report(1) diverge",
            ))
    return out


@register_invariant(
    "service-equivalence", "trace",
    "A SketchService fed the trace as chunked per-tenant ingest commands "
    "(coalesced into insert_window barriers) yields estimates, reports, "
    "and snapshot bytes bit-identical to offline sketches fed directly",
)
def _check_service_equivalence(
    trace: Trace, config: VerifyConfig
) -> List[Violation]:
    import asyncio

    from ..service import SketchService, TenantSpec, build_sketch

    name = "service-equivalence"
    memory_bytes = max(1024, config.memory_bytes)
    specs = {
        "flat": TenantSpec(
            name="flat", kind="flat", memory_bytes=memory_bytes,
            n_windows=trace.n_windows, seed=config.seed, engine="kernel",
            window_distinct_hint=trace.mean_window_distinct(),
        ),
        "sliding": TenantSpec(
            name="sliding", kind="sliding", memory_bytes=memory_bytes,
            horizon=max(2, min(8, trace.n_windows)), seed=config.seed,
            engine="kernel",
        ),
    }
    window_arrays = trace.window_arrays()
    keys = sample_keys(trace, _EQUIVALENCE_KEY_CAP)

    async def drive() -> Dict[str, Dict[str, object]]:
        service = SketchService()
        await service.start()
        for spec in specs.values():
            await service.create_tenant(spec.to_dict())
        for window_keys in window_arrays:
            # three chunks per window per tenant: the barrier must
            # coalesce them into ONE insert_window, in arrival order
            third = max(1, len(window_keys) // 3) if len(window_keys) \
                else 1
            for tenant in specs:
                for i in range(0, len(window_keys) or 0, third):
                    await service.ingest(
                        tenant, window_keys[i:i + third]
                    )
            for tenant in specs:
                await service.end_window(tenant)
        results = {}
        for tenant in specs:
            sketch = service.tenants[tenant].sketch
            # bytes before the estimate sweep: queries move counters
            state_bytes = encode_state(sketch.state_dict())
            estimates = service.estimate(tenant, keys)["estimates"]
            results[tenant] = {
                "bytes": state_bytes,
                "estimates": estimates,
                "report": service.report(tenant, 1)["items"],
            }
        await service.close()
        return results

    served = asyncio.run(drive())
    out = []
    for tenant, spec in specs.items():
        offline = build_sketch(spec)
        for window_keys in window_arrays:
            offline.insert_window(window_keys)
        offline_bytes = encode_state(offline.state_dict())
        if served[tenant]["bytes"] != offline_bytes:
            out.append(Violation(
                name,
                f"tenant {tenant!r}: served snapshot bytes diverge from "
                f"the offline run",
            ))
        for key in keys:
            mine = int(served[tenant]["estimates"][str(key)])
            theirs = int(offline.query(key))
            if mine != theirs:
                out.append(Violation(
                    name,
                    f"tenant {tenant!r} key {key}: served estimate "
                    f"{mine} != offline estimate {theirs}",
                    key=key,
                    details={"served": mine, "offline": theirs},
                ))
        offline_report = {str(key): int(value) for key, value
                          in offline.report(1).items()}
        if served[tenant]["report"] != offline_report:
            out.append(Violation(
                name, f"tenant {tenant!r}: served report(1) diverges",
            ))
    return out
