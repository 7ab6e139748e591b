"""Test helper: build a plain :class:`Table` straight from column arrays.

The served system fills tables through ``Loader.load_batch`` /
``Table.append_batch``; tests that only need a table of given values
build one here instead of going through a catalog.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.columnstore.column import Column
from repro.columnstore.table import Table


def table_from_arrays(
    name: str, arrays: Mapping[str, np.ndarray | Sequence]
) -> Table:
    """A table named ``name`` whose columns hold ``arrays``, in order."""
    columns = []
    for col_name, values in arrays.items():
        arr = np.asarray(values)
        columns.append(Column(col_name, arr.dtype, arr))
    return Table(name, columns)
