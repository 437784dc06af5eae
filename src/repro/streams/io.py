"""Trace persistence: save/load traces for reproducible experiment reruns.

Two formats:

* **CSV** — human-readable ``item,window`` rows with a small header; good for
  inspecting small traces and interop with other tools.
* **NPZ** — compressed numpy arrays; the format the benches use for caching
  generated workloads between runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

import numpy as np

from ..common.errors import StreamError
from .model import Trace

PathLike = Union[str, Path]

_CSV_HEADER = ("item", "window")


def save_trace_csv(trace: Trace, path: PathLike) -> None:
    """Write a trace as ``item,window`` CSV with a ``#meta`` JSON comment."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(
            "#meta "
            + json.dumps(
                {"name": trace.name, "n_windows": trace.n_windows,
                 "meta": trace.meta}
            )
            + "\n"
        )
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        writer.writerows(trace.records())


def load_trace_csv(path: PathLike) -> Trace:
    """Read a trace written by :func:`save_trace_csv`."""
    path = Path(path)
    with path.open(newline="") as fh:
        first = fh.readline()
        if not first.startswith("#meta "):
            raise StreamError(f"{path}: missing #meta header")
        header = json.loads(first[len("#meta "):])
        reader = csv.reader(fh)
        column_names = next(reader, None)
        if tuple(column_names or ()) != _CSV_HEADER:
            raise StreamError(f"{path}: unexpected CSV columns {column_names}")
        items = []
        wids = []
        for row in reader:
            if not row:
                continue
            items.append(int(row[0]))
            wids.append(int(row[1]))
    return Trace(
        items,
        wids,
        header["n_windows"],
        name=header.get("name", path.stem),
        meta=header.get("meta", {}),
    )


def save_trace_npz(trace: Trace, path: PathLike) -> None:
    """Write a trace as a compressed ``.npz`` archive (the key column as
    its ``int64`` view, so keys at or above ``2**63`` round-trip)."""
    path = Path(path)
    np.savez_compressed(
        path,
        items=trace.key_column.view(np.int64),
        window_ids=trace.window_column,
        n_windows=np.asarray([trace.n_windows], dtype=np.int64),
        header=np.frombuffer(
            json.dumps({"name": trace.name, "meta": trace.meta}).encode(),
            dtype=np.uint8,
        ),
    )


def load_trace_npz(path: PathLike) -> Trace:
    """Read a trace written by :func:`save_trace_npz`; the file's arrays
    become the trace's columns without a copy."""
    path = Path(path)
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        return Trace(
            data["items"],
            data["window_ids"],
            int(data["n_windows"][0]),
            name=header.get("name", path.stem),
            meta=header.get("meta", {}),
        )
