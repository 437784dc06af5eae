"""Bit-level memory accounting for sketches.

Accuracy-versus-memory experiments (figures 11-18) only make sense if each
algorithm is sized from the *same* byte budget using the bit widths the paper
assumes: 32-bit counters for On-Off/CM, small saturating counters for the
Cold Filter, 4-byte item IDs, 1-bit on/off flags.  This module centralizes
those conversions so every sketch constructor does its sizing the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

KB = 1024
ID_BITS = 32  # the paper uses 4-byte item IDs throughout


def counter_bits_for(max_value: int) -> int:
    """Smallest counter width (bits) that can represent ``max_value``."""
    if max_value < 1:
        raise ValueError("max_value must be >= 1")
    return max(1, math.ceil(math.log2(max_value + 1)))


def cells_for_budget(budget_bytes: int, bits_per_cell: int, minimum: int = 1) -> int:
    """How many ``bits_per_cell``-wide cells fit in ``budget_bytes``."""
    if budget_bytes < 0:
        raise ValueError("budget_bytes must be >= 0")
    if bits_per_cell < 1:
        raise ValueError("bits_per_cell must be >= 1")
    return max(minimum, (budget_bytes * 8) // bits_per_cell)


def split_budget(budget_bytes: int, *weights: float) -> List[int]:
    """Split a byte budget proportionally to ``weights`` (sums preserved).

    >>> split_budget(100, 3, 2)
    [60, 40]
    """
    if budget_bytes < 0:
        raise ValueError("budget_bytes must be >= 0")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    parts = [int(budget_bytes * w / total) for w in weights]
    parts[0] += budget_bytes - sum(parts)  # hand rounding slack to the first
    return parts


@dataclass(frozen=True)
class MemoryReport:
    """Breakdown of a sketch's modeled memory, in bits, by component."""

    components: Dict[str, int]

    @property
    def total_bits(self) -> int:
        return sum(self.components.values())

    @property
    def total_bytes(self) -> int:
        return (self.total_bits + 7) // 8

    def fraction(self, name: str) -> float:
        """Fraction of the total taken by one component."""
        total = self.total_bits
        return self.components[name] / total if total else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rows = ", ".join(
            f"{name}={bits / 8 / KB:.2f}KB" for name, bits in self.components.items()
        )
        return f"MemoryReport({rows}, total={self.total_bytes / KB:.2f}KB)"


class FlagArray:
    """A dense array of 1-bit on/off flags with O(1) bulk reset.

    Sketch layers reset *all* flags at every window boundary; doing that with
    a per-bit loop would dominate runtime for large arrays.  We instead store
    the window epoch at which each flag was last turned *off*: a flag is "on"
    unless it was turned off during the current epoch.  ``reset()`` simply
    bumps the epoch.  Modeled memory is still 1 bit per flag, which is what
    the hardware structure would use.
    """

    __slots__ = ("_epoch", "_off_epoch")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self._epoch = 1
        self._off_epoch = np.zeros(size, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._off_epoch)

    def is_on(self, idx: int) -> bool:
        return int(self._off_epoch[idx]) != self._epoch

    def turn_off(self, idx: int) -> None:
        self._off_epoch[idx] = self._epoch

    def reset(self) -> None:
        """Turn every flag back on (start of a new window)."""
        self._epoch += 1

    def is_on_batch(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_on` over an index vector."""
        return self._off_epoch[idx] != self._epoch

    def turn_off_at(self, idx: np.ndarray) -> None:
        """Vectorized :meth:`turn_off` over an index vector."""
        self._off_epoch[idx] = self._epoch

    @property
    def modeled_bits(self) -> int:
        """Modeled memory footprint in bits."""
        return len(self._off_epoch)

    def state_dict(self) -> Dict[str, Any]:
        """Exact state as plain values (see :mod:`repro.persist`)."""
        return {"epoch": self._epoch, "off_epoch": self._off_epoch.copy()}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "FlagArray":
        """Rebuild a flag array bit-identical to the one that was saved."""
        obj = cls(size=len(state["off_epoch"]))
        obj._epoch = int(state["epoch"])
        obj._off_epoch[:] = np.asarray(state["off_epoch"], dtype=np.int64)
        return obj
