"""Sketch checkpointing: save/restore a sketch mid-stream.

Long-running monitors need to survive restarts without losing accumulated
persistence state.  This module is the stable entry point; the heavy
lifting lives in :mod:`repro.persist`.  Every sketch type this package
restores implements ``state_dict()`` / ``from_state()`` and is saved
through the pickle-free, CRC32-checked binary codec and written
atomically — a crash mid-save leaves the previous snapshot intact, and any
corruption of the file raises :class:`SnapshotError` instead of loading a
wrong sketch.  Objects without a registered state contract are refused:
nothing here ever unpickles.

Estimates after a restore equal estimates without the restart, bit for
bit — including the Hot Part's replacement RNG stream.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..common.errors import SnapshotError
from ..persist.state import load_state, save_state

__all__ = ["SnapshotError", "save_sketch", "load_sketch"]

PathLike = Union[str, Path]


def save_sketch(sketch, path: PathLike) -> None:
    """Write a restorable snapshot of a sketch, atomically.

    The sketch's class-tagged ``state_dict()`` goes through the versioned
    binary codec (:mod:`repro.persist`); the bytes land in a temporary
    file first and replace the target in one ``os.replace``, so a crash
    can never leave a truncated snapshot where a good one was.  Objects
    whose class is not registered for persistence raise
    :class:`SnapshotError` before anything is written.
    """
    save_state(sketch, path)


def load_sketch(path: PathLike, expected_class: type = None):
    """Restore a sketch saved with :func:`save_sketch`.

    Loading executes nothing from the file.  Every failure mode — missing
    file, truncation, bit flip, foreign bytes, version drift — raises
    :class:`SnapshotError`.

    ``expected_class`` (optional) guards against restoring the wrong kind
    of sketch into a pipeline.
    """
    return load_state(path, expected_class=expected_class)
