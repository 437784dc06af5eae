"""Shared helpers: statistics, provenance, peak memory and result output."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work"
QUERY_BATCH = 256  # point queries per timed sample or estimate request


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def block_percentile(blocks: Iterable[List[float]], q: float) -> float:
    """Median over blocks of each block's ``q`` percentile.

    Blocks are job repetitions or slices of a session.  Host noise on a
    shared machine comes in episodes of about a second that slow
    everything down; a pooled percentile moves with the share of the run
    those episodes cover, while the median over blocks ignores the
    blocks they hit, as long as they are a minority.
    """
    return median(percentile(block, q) for block in blocks if block)


def peak_rss_mb(rusage) -> float:
    """``ru_maxrss`` (KiB on Linux) of a ``resource`` rusage, in MiB."""
    return rusage.ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF))


def provenance() -> Dict[str, object]:
    """The fields ``scripts/record_bench.py`` records, plus ``nproc``."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True, cwd=ROOT,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # a source checkout without git metadata
    import numpy
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "nproc": os.cpu_count(),
    }


def run_setup_child(args: List[str]) -> float:
    """Run one set-up in a fresh interpreter; return its measured seconds.

    Set-up runs in a child so that its memory high-water mark stays out
    of the measured process's ``peak_rss_mb``.
    """
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
         "--setup-only", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def best_per_position(runs: List[List[float]]) -> List[float]:
    """Each position's fastest time over repetitions of the same steps.

    A position is one step of a repeated job: one window, one query
    batch.  The shared host slows everything down in episodes that can
    cover most of a run; the fastest repetition of each step is the
    one those episodes missed.
    """
    return [min(times) for times in zip(*runs)]


#: end-to-end metric -> unit, in BENCHMARK.json order
UNITS = {
    "ingest_mrps": "Mrec/s",
    "query_mqps": "Mq/s",
    "job_s": "s",
    "window_p50_ms": "ms",
    "window_p90_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def end_to_end(values: Dict[str, tuple], notes: List[str]):
    """The end-to-end metric set, plus one printable line per metric.

    ``values`` maps each metric to ``(value, samples)``; each line states
    the sample count behind the number.
    """
    metrics = {name: metric(values[name][0], unit)
               for name, unit in UNITS.items()}
    lines = [f"  {name:<16} {values[name][0]:>12.6g} {unit:<7} "
             f"(n={values[name][1]})" for name, unit in UNITS.items()]
    return metrics, lines + [f"  {note}" for note in notes]
