"""Literal whole-field references that the tests hold the library against.

Each is one gather from the field's log and antilog tables, with none of
the linear or quadratic table machinery of gf2m.
"""

from __future__ import annotations

import numpy as np


def power_table(ctx, t: int) -> np.ndarray:
    """x^t for every x in the field, as int64[q], t >= 1."""
    out = np.zeros(ctx.q, dtype=np.int64)
    out[1:] = ctx.antilog_table[(ctx.log_table[1:] * t) % ctx.n_units]
    return out


def mul_vec(ctx, c: int, v: np.ndarray) -> np.ndarray:
    """c * v elementwise for an array v of field elements."""
    out = np.zeros_like(v)
    if c:
        nz = v != 0
        # log c + log v < 2(q-1), so one wrap of the antilog table reduces it
        logs = int(ctx.log_table[c]) + ctx.log_table[v[nz]]
        out[nz] = ctx.antilog_table.take(logs, mode="wrap")
    return out
