"""Figures 19-20 — insert/query throughput with and without SIMD.

Reported series (per DESIGN.md §5.2, wall-clock in interpreted Python is
indicative; hash-op counts are the platform-independent reproduction):

* fig 19: insert Mops and hash-ops-per-insert for HS / HS-SIMD / OO / CM /
  WS — the Burst Filter should give HS the fewest downstream hash ops, and
  the SIMD scan should cut Burst-Filter compare ops ~4x;
* fig 20: query Mqps plus the HS stage-hit distribution (most inserts
  resolved at Cold-Filter L1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..report import FigureResult
from ..sweeps import insert_throughput_sweep, query_throughput_sweep
from .common import (
    bench_scale,
    estimation_memories_kb,
    throughput_datasets,
)

ALGORITHMS = ("HS", "HS-SIMD", "OO", "WS", "CM")

#: fig 19 additionally reports the whole-window kernel ingestion path.
#: Same sketch as HS-SIMD, fed through ``insert_window`` — identical hash
#: ops per insert (the cost model is per-record), far higher wall-clock Mops.
INSERT_ALGORITHMS = ALGORITHMS + ("HS-KERNEL",)


def run_fig19(scale: Optional[float] = None) -> List[FigureResult]:
    scale = scale if scale is not None else bench_scale()
    results: List[FigureResult] = []
    for name, build in throughput_datasets(scale).items():
        figures = insert_throughput_sweep(
            build(), estimation_memories_kb(scale),
            algorithms=INSERT_ALGORITHMS,
        )
        for kind, fig in figures.items():
            fig.figure_id = f"fig19-{kind}"
            results.append(fig)
    return results


def run_fig20(scale: Optional[float] = None) -> List[FigureResult]:
    scale = scale if scale is not None else bench_scale()
    results: List[FigureResult] = []
    for name, build in throughput_datasets(scale).items():
        figures = query_throughput_sweep(
            build(), estimation_memories_kb(scale), algorithms=ALGORITHMS
        )
        for kind, fig in figures.items():
            fig.figure_id = f"fig20-{kind}"
            results.append(fig)
    return results


def run_all(scale: Optional[float] = None) -> Dict[str, List[FigureResult]]:
    return {"fig19": run_fig19(scale), "fig20": run_fig20(scale)}


def main() -> None:  # pragma: no cover - CLI convenience
    for figures in run_all().values():
        for result in figures:
            print(result.to_table())
            print()


if __name__ == "__main__":  # pragma: no cover
    main()
