"""Tenant model: specs, sketch construction, and admission control.

A *tenant* is one isolated sketch universe inside the service: its own
sketch (flat, sharded, or sliding), its own memory budget, its own
checkpoint file, and its own coalescing ingest queue.  Tenants share
nothing but the event loop — no key routed to one tenant can influence
another's estimates, which the service-isolation tests pin by comparing
each tenant's snapshot bytes against an offline sketch fed only that
tenant's stream.

Specs are plain data (JSON-able), so the same dict that creates a tenant
over HTTP is stored in its checkpoint ``meta`` and rebuilds the tenant
after a crash.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from ..common.errors import ServiceError
from ..core.config import HSConfig
from ..core.hypersistent import HypersistentSketch
from ..core.kernels import ENGINE_KERNEL, ENGINES
from ..core.sharded import ShardedSketch
from ..core.sliding import SlidingHypersistentSketch
from ..distributed.partition import worker_config

#: Supported tenant sketch kinds.
KIND_FLAT = "flat"
KIND_SHARDED = "sharded"
KIND_SLIDING = "sliding"
TENANT_KINDS = (KIND_FLAT, KIND_SHARDED, KIND_SLIDING)

#: Tenant names become file names and URL path segments — keep them tame.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to (re)build one tenant's sketch, as plain data.

    ``memory_bytes`` is the tenant's admission-controlled budget (the
    sizing input, and what counts against the server's global budget).
    ``n_windows`` sizes the flat/sharded counter widths exactly like the
    offline harness's ``HSConfig.for_estimation``; ``horizon`` replaces
    it for sliding tenants.  ``window_distinct_hint`` (optional) sizes
    the Burst Filter to the expected per-window working set — pass the
    same value an offline reference run would use to get bit-identical
    sketches.
    """

    name: str
    kind: str = KIND_FLAT
    memory_bytes: int = 64 * 1024
    n_windows: int = 3000
    seed: int = 42
    engine: str = ENGINE_KERNEL
    horizon: int = 0
    n_shards: int = 0
    checkpoint_every: int = 0
    window_distinct_hint: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`ServiceError` on any inconsistent field."""
        if not _NAME_RE.match(self.name or ""):
            raise ServiceError(
                f"tenant name {self.name!r} must match "
                f"{_NAME_RE.pattern} (it names files and URLs)"
            )
        if self.kind not in TENANT_KINDS:
            raise ServiceError(
                f"unknown tenant kind {self.kind!r}; "
                f"choose from {TENANT_KINDS}"
            )
        if self.engine not in ENGINES:
            raise ServiceError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.memory_bytes < 1024:
            raise ServiceError("tenant memory_bytes must be >= 1024")
        if self.n_windows < 1:
            raise ServiceError("tenant n_windows must be >= 1")
        if self.checkpoint_every < 0:
            raise ServiceError("checkpoint_every must be >= 0")
        if self.kind == KIND_SLIDING:
            if self.horizon < 2:
                raise ServiceError(
                    "sliding tenants need horizon >= 2 windows"
                )
        elif self.horizon:
            raise ServiceError(
                f"horizon is only meaningful for sliding tenants "
                f"(kind={self.kind!r})"
            )
        if self.kind == KIND_SHARDED:
            if self.n_shards < 2:
                raise ServiceError(
                    "sharded tenants need n_shards >= 2"
                )
        elif self.n_shards:
            raise ServiceError(
                f"n_shards is only meaningful for sharded tenants "
                f"(kind={self.kind!r})"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (checkpoint meta, HTTP responses)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "TenantSpec":
        """Build and validate a spec from an untrusted request dict."""
        if not isinstance(raw, dict):
            raise ServiceError("tenant spec must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ServiceError(
                f"unknown tenant spec field(s): {', '.join(unknown)}"
            )
        try:
            spec = cls(**raw)
        except TypeError as exc:
            raise ServiceError(f"bad tenant spec: {exc}") from exc
        coerced = spec._coerced()
        coerced.validate()
        return coerced

    def _coerced(self) -> "TenantSpec":
        """Normalize JSON-borne field types (ints arrive as ints, but a
        client may send floats or numeric strings).

        The retired ``"batched"`` engine, still named by tenant
        checkpoints written before it was removed, maps to ``"kernel"``:
        the engine is runtime-only and the engines were bit-identical, so
        those state dirs recover byte-exact.
        """
        engine = str(self.engine)
        try:
            return TenantSpec(
                name=str(self.name),
                kind=str(self.kind),
                memory_bytes=int(self.memory_bytes),
                n_windows=int(self.n_windows),
                seed=int(self.seed),
                engine=ENGINE_KERNEL if engine == "batched" else engine,
                horizon=int(self.horizon),
                n_shards=int(self.n_shards),
                checkpoint_every=int(self.checkpoint_every),
                window_distinct_hint=(
                    None if self.window_distinct_hint is None
                    else float(self.window_distinct_hint)
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"bad tenant spec: {exc}") from exc


def build_sketch(spec: TenantSpec):
    """Construct the tenant's sketch exactly as the offline harness would.

    * ``flat`` — one :class:`HypersistentSketch` sized by
      ``HSConfig.for_estimation`` (the same derivation ``repro estimate``
      and ``run_stream`` references use, so server-side estimates can be
      proven bit-identical to an offline run);
    * ``sharded`` — a :class:`ShardedSketch` whose per-shard configs come
      from the distributed pipeline's :func:`worker_config` partitioner,
      so a sharded tenant is literally a single-process form of a PR 8
      pipeline run;
    * ``sliding`` — a two-panel :class:`SlidingHypersistentSketch` over
      the last ``horizon`` windows.

    All kinds run the requested batch engine; ingest goes through
    ``insert_window`` per coalesced window.
    """
    spec.validate()
    if spec.kind == KIND_FLAT:
        return HypersistentSketch(
            HSConfig.for_estimation(
                spec.memory_bytes, spec.n_windows, seed=spec.seed,
                window_distinct_hint=spec.window_distinct_hint,
            ),
            engine=spec.engine,
        )
    if spec.kind == KIND_SHARDED:
        configs = [
            worker_config(
                spec.memory_bytes, spec.n_windows, i, spec.n_shards,
                seed=spec.seed,
                window_distinct_hint=spec.window_distinct_hint,
            )
            for i in range(spec.n_shards)
        ]
        return ShardedSketch(
            lambda i: HypersistentSketch(configs[i]),
            n_shards=spec.n_shards, seed=spec.seed, engine=spec.engine,
        )
    return SlidingHypersistentSketch(
        spec.memory_bytes, horizon=spec.horizon, seed=spec.seed,
        engine=spec.engine,
    )


def apply_engine(sketch, engine: str) -> None:
    """Route an engine choice onto any tenant sketch kind.

    Flat, sharded, and sliding sketches all expose an ``engine``
    property (sharded propagates per shard); the engine is runtime-only
    state, so a restored checkpoint needs it re-applied.
    """
    if not hasattr(sketch, "engine"):
        raise ServiceError(
            f"{type(sketch).__name__} has no engine selector; "
            f"cannot apply engine={engine!r}"
        )
    sketch.engine = engine


@dataclass
class TenantStats:
    """Mutable per-tenant service counters (exported via ``/metrics``)."""

    items_total: int = 0
    ingests_total: int = 0
    windows_total: int = 0
    coalesced_batches_total: int = 0
    queries_total: int = 0
    checkpoints_total: int = 0
    rejected_total: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(asdict(self))


class AdmissionController:
    """Global memory-budget accounting across tenants.

    ``max_memory_bytes=None`` disables the global cap (per-tenant budgets
    still apply to sketch sizing).  ``admit`` / ``release`` bracket a
    tenant's lifetime; admission failures raise
    :class:`~repro.common.errors.AdmissionError` before any sketch is
    built, so a rejected tenant costs nothing.
    """

    def __init__(self, max_memory_bytes: Optional[int] = None):
        if max_memory_bytes is not None and max_memory_bytes < 1024:
            raise ServiceError("max_memory_bytes must be >= 1024")
        self.max_memory_bytes = max_memory_bytes
        self.reserved_bytes = 0
        self.rejections = 0

    @property
    def available_bytes(self) -> Optional[int]:
        if self.max_memory_bytes is None:
            return None
        return self.max_memory_bytes - self.reserved_bytes

    def admit(self, spec: TenantSpec) -> None:
        from ..common.errors import AdmissionError

        if self.max_memory_bytes is not None and \
                self.reserved_bytes + spec.memory_bytes > \
                self.max_memory_bytes:
            self.rejections += 1
            raise AdmissionError(
                f"tenant {spec.name!r} wants {spec.memory_bytes} bytes "
                f"but only {self.available_bytes} of "
                f"{self.max_memory_bytes} remain"
            )
        self.reserved_bytes += spec.memory_bytes

    def release(self, spec: TenantSpec) -> None:
        self.reserved_bytes = max(0, self.reserved_bytes - spec.memory_bytes)
