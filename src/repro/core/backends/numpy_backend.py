"""The always-available reference backend: thin numpy delegation.

This backend *is* the semantics — every other backend is correct only
insofar as it reproduces these functions bit-for-bit.  Its bank kernel
is the inherited vectorised reference,
:class:`~repro.core.backends.base.BankKernel` (one batched
``update_columns`` call plus the numpy Figure-4 report per tick).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.backends.base import KernelBackend
from repro.core.state import update_column, update_columns
from repro.dtw.lower_bounds import lb_corridor

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Reference implementation on numpy ufuncs; no compilation step."""

    name = "numpy"
    compiled = False

    def update_column(self, state, cost: np.ndarray, tick: int) -> None:
        update_column(state, cost, tick)

    def update_columns(
        self,
        d: np.ndarray,
        s: np.ndarray,
        cost: np.ndarray,
        ticks: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        return update_columns(d, s, cost, ticks)

    def lb_corridor(
        self, x: float, lo: np.ndarray, hi: np.ndarray, kind: str
    ) -> np.ndarray:
        return lb_corridor(x, lo, hi, kind)

    def group_corridor(
        self,
        x: float,
        lo: np.ndarray,
        hi: np.ndarray,
        eps: np.ndarray,
        kind: str,
    ) -> np.ndarray:
        return lb_corridor(x, lo, hi, kind) > eps
