"""Export experiment artifacts to JSON / CSV for external plotting.

The benchmark modules print ASCII renderings; anyone regenerating the
paper's figures with matplotlib/gnuplot wants machine-readable series
instead.  These helpers write the exact data structures the
``fig*``/``run_table*`` builders return.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Union

import numpy as np

__all__ = [
    "export_json",
    "export_table2_csv",
    "export_series_csv",
    "to_jsonable",
]

PathLike = Union[str, os.PathLike]


def to_jsonable(obj: Any) -> Any:
    """Recursively coerce an artifact structure to json.dump-safe types.

    Two coercions happen at this boundary — nowhere else:

    * mapping keys become strings (JSON requirement; beta values and
      edge counts round-trip via ``float()``/``int()`` on load);
    * NumPy scalars become native Python numbers.  ``np.float64``
      happens to subclass ``float`` and serializes, but ``np.int64``
      does not subclass ``int`` — a single stray ``np.int64`` *value*
      raises ``TypeError: Object of type int64 is not JSON
      serializable`` and a stray *key* raises ``TypeError: keys must
      be str...``, so both sides are scrubbed here.  Arrays become
      lists.
    """
    if isinstance(obj, Mapping):
        return {_json_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    return obj


def _json_key(key: Any) -> str:
    if isinstance(key, np.generic):
        key = key.item()
    return str(key)


def export_json(data: Any, path: PathLike) -> None:
    """Write any artifact structure as pretty-printed JSON.

    The structure is scrubbed through :func:`to_jsonable` first, so
    NumPy scalar keys and values coming out of the experiment builders
    cannot crash the dump.
    """
    Path(path).write_text(json.dumps(to_jsonable(data), indent=2, sort_keys=True))


def export_table2_csv(
    table: Dict[str, Dict[str, Dict[str, float]]], path: PathLike
) -> None:
    """Table 2 as long-form CSV: algorithm, graph, threads, seconds."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "graph", "threads", "seconds"])
        for algo, row in table.items():
            for graph, cells in row.items():
                for threads in ("1", "40h"):
                    if threads in cells:
                        writer.writerow([algo, graph, threads, cells[threads]])


def export_series_csv(
    series: Dict[str, Dict], path: PathLike, x_name: str = "x", y_name: str = "y"
) -> None:
    """Any ``{series_name: {x: y}}`` structure as long-form CSV.

    Fits Figure 2 (``{algo: {threads: seconds}}``), Figure 3
    (``{variant: {beta: seconds}}``) and friends.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", x_name, y_name])
        for name, points in series.items():
            for x, y in points.items():
                writer.writerow([name, x, y])
