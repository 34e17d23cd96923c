"""Kernel backend contract: pluggable engines for the four hot kernels.

A :class:`KernelBackend` supplies drop-in replacements for the numeric
inner loops that dominate the per-tick cost of SPRING:

* :func:`repro.core.state.update_columns` — the fused bank column
  recurrence (Q queries per call);
* :func:`repro.core.state.update_column` — the scalar ``SpringState``
  step used by per-query matchers and ``Spring.extend`` blocks;
* :func:`repro.dtw.lower_bounds.lb_corridor` — the O(Q) admission bound
  of the pruning cascade;
* a *bank kernel* (:class:`BankKernel`) — the fully fused per-tick path
  of :class:`~repro.core.fused.FusedSpring` (local cost + column
  recurrence + Figure-4 report logic in one call), which is where
  compiled backends earn their keep: one foreign call per tick instead
  of a dozen numpy dispatches — or per batch, admission cascade
  included, where the kernel :attr:`~BankKernel.runs_admission`.

**Exactness contract.**  A backend is only correct if it is *bit-exact*
against the NumPy reference: identical float64 results for every
non-NaN cell of ``d``/``s``, identical tie-breaks (vertical wins ties
in the recurrence, ``np.minimum``'s first-NaN-wins running minimum,
strict ``<`` for new prefix minima), identical NaN/inf *placement*,
and no FMA contraction (compiled implementations must disable it; a
fused multiply-add rounds once where NumPy rounds twice).  NaN
*payload bits* are the one unspecified degree of freedom: NumPy's own
both-NaN additions propagate shape-dependent payloads (SIMD loops vs
scalar tails), every downstream consumer compares (false for any NaN),
and the fused bank path never produces NaN at all — so parity checks
canonicalise NaNs before comparing bytes.  The cross-backend
parity suite (``tests/properties/test_backend_parity.py``) enforces
this on match streams, column state, and error paths alike; the
argument for *why* the compiled recurrence can be bit-identical lives
in ``docs/algorithm.md`` §12.

Backends are runtime properties of an engine, never part of its
serialised state: a checkpoint written under one backend restores under
any other to byte-identical future matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.matches import Match

__all__ = ["BackendInfo", "KernelBackend", "BankKernel"]


@dataclass(frozen=True)
class BackendInfo:
    """One row of the backend registry listing (``repro backends``)."""

    #: Registry name (``"numpy"``, ``"numba"``, ``"cext"``).
    name: str
    #: Auto-selection rank; higher wins among available backends.
    priority: int
    #: Whether the kernels run as native code (vs. numpy dispatch).
    compiled: bool
    #: Whether the backend can be used in this process right now.
    available: bool
    #: Human-readable availability note (or the reason it is not).
    detail: str


class BankKernel:
    """A compiled fused-step kernel bound to one ``FusedSpring`` engine.

    The kernel advances the engine's *master arrays in place* — column
    matrices, tick counters, and the Figure-4 bookkeeping — and returns
    confirmations in exactly the order the vectorised NumPy path
    reports them (ascending query index per tick, ticks in stream
    order).  Binding caches the arrays' base addresses, so the engine
    must never rebind them while a kernel is attached (the compiled
    code paths never do; see ``FusedSpring``).
    """

    __slots__ = ("_emit_q", "_emit_d", "_emit_ts", "_emit_te", "_emit_t")

    #: Whether :meth:`extend_pruned` runs the admission cascade inside
    #: the compiled loop.  Engines on kernels without it keep the
    #: per-tick Python cascade for pruned blocks.
    runs_admission = False

    def __init__(self, q: int) -> None:
        # One slot per query suffices for a single tick (a query emits
        # at most one confirmation per tick); extend() batches up to
        # ``emit_capacity`` before handing control back to Python.
        cap = max(4 * q, 1024)
        self._emit_q = np.empty(cap, dtype=np.int64)
        self._emit_d = np.empty(cap, dtype=np.float64)
        self._emit_ts = np.empty(cap, dtype=np.int64)
        self._emit_te = np.empty(cap, dtype=np.int64)
        self._emit_t = np.empty(cap, dtype=np.int64)

    @property
    def emit_capacity(self) -> int:
        """Confirmation slots available per foreign call."""
        return int(self._emit_q.shape[0])

    def collect(self, n: int) -> List[Tuple[int, Match]]:
        """Materialise the first ``n`` buffered emissions as matches."""
        eq, ed = self._emit_q, self._emit_d
        ets, ete, et = self._emit_ts, self._emit_te, self._emit_t
        return [
            (
                int(eq[i]),
                Match(
                    start=int(ets[i]),
                    end=int(ete[i]),
                    distance=float(ed[i]),
                    output_time=int(et[i]),
                ),
            )
            for i in range(n)
        ]

    # -- to implement ---------------------------------------------------

    def step(self, x: float) -> List[Tuple[int, Match]]:
        """Advance every query by one finite stream value."""
        raise NotImplementedError

    def step_rows(self, x: float, rows: np.ndarray) -> List[Tuple[int, Match]]:
        """Advance only ``rows`` (the hot subset under pruning)."""
        raise NotImplementedError

    def extend(
        self, xs: np.ndarray, skip: np.ndarray
    ) -> List[Tuple[int, Match]]:
        """Advance every query through a block of values.

        ``skip`` marks ticks that advance time without a column update
        (the ``missing="skip"`` policy); emissions come back flattened
        in (tick, query-index) order, identical to per-tick stepping.
        """
        raise NotImplementedError

    def extend_pruned(
        self, xs: np.ndarray, skip: np.ndarray, cascade
    ) -> List[Tuple[int, Match]]:
        """:meth:`extend` with the admission cascade inside the loop.

        Per tick, the kernel makes the decision of ``cascade`` (a
        :class:`~repro.core.admission.AdmissionCascade` whose ``native``
        names a built-in strategy): push the value to the replay ring,
        wake parked rows by replay (tripwire kept) or deep wake, park
        newly cold rows, then step and report the hot rows.  Ring
        slots, the parked mask and park positions are written in place;
        the scalar state goes through ``native_state`` /
        ``native_commit``.  The result — emissions, columns, cascade
        state and counters — is byte-identical to feeding each value
        through ``cascade.admit`` and the hot-row step.  Only kernels
        with :attr:`runs_admission` implement it.
        """
        raise NotImplementedError


class KernelBackend:
    """Interface every kernel backend implements.

    Instances are process-wide singletons handed out by the registry
    (:func:`repro.core.backends.resolve_backend`); per-engine state
    lives in the :class:`BankKernel` objects they mint.
    """

    #: Registry name.
    name: str = "?"
    #: True when kernels run as native code.
    compiled: bool = False
    #: Wall-clock seconds spent compiling/loading kernels, measured so
    #: benchmarks can report warm-up separately from throughput.
    warmup_seconds: float = 0.0

    def update_column(self, state, cost: np.ndarray, tick: int) -> None:
        """Scalar-engine column update; mutates ``state`` like
        :func:`repro.core.state.update_column`."""
        raise NotImplementedError

    def update_columns(
        self,
        d: np.ndarray,
        s: np.ndarray,
        cost: np.ndarray,
        ticks: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused column update; same contract as
        :func:`repro.core.state.update_columns` (fresh output arrays,
        inputs untouched)."""
        raise NotImplementedError

    def lb_corridor(
        self, x: float, lo: np.ndarray, hi: np.ndarray, kind: str
    ) -> np.ndarray:
        """Corridor admission bound; same contract as
        :func:`repro.dtw.lower_bounds.lb_corridor` for array inputs."""
        raise NotImplementedError

    def group_corridor(
        self,
        x: float,
        lo: np.ndarray,
        hi: np.ndarray,
        eps: np.ndarray,
        kind: str,
    ) -> np.ndarray:
        """Fused group certification for tiered admission.

        Returns the boolean array ``lb_corridor(x, lo, hi, kind) > eps``
        — one entry per merged-envelope group (see
        :mod:`repro.dtw.envelope_index`): ``True`` certifies every
        member of that group cold for this tick.  Bit-exactness is
        inherited from :meth:`lb_corridor` plus an exact float64
        comparison, which is also what this default delegation
        computes; compiled backends override it with a fused kernel.
        """
        return self.lb_corridor(x, lo, hi, kind) > eps

    def bank_kernel(self, engine) -> Optional[BankKernel]:
        """Mint a fused-step kernel bound to ``engine``, or ``None``.

        ``None`` means the engine should keep using its vectorised
        NumPy path — always the case for the numpy backend, and for
        banks whose local distance has no compiled specialisation
        (custom callables).
        """
        return None

    def warmup(self) -> float:
        """Force any deferred compilation now; return seconds spent.

        Engines call this at construction so JIT cost can never land
        on the first stream tick.  Idempotent: repeat calls are free.
        """
        return self.warmup_seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} compiled={self.compiled}>"
