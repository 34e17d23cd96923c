"""Kernel backend contract: pluggable engines for the four hot kernels.

A :class:`KernelBackend` supplies drop-in replacements for the numeric
inner loops that dominate the per-tick cost of SPRING:

* :func:`repro.core.state.update_columns` — the fused bank column
  recurrence (Q queries per call);
* :func:`repro.core.state.update_column` — the scalar ``SpringState``
  step used by per-query matchers and ``Spring.extend`` blocks;
* :func:`repro.dtw.lower_bounds.lb_corridor` — the O(Q) admission bound
  of the pruning cascade;
* a *bank kernel* (:class:`BankKernel`) — the fused per-tick path of
  :class:`~repro.core.fused.FusedSpring` (local cost + column
  recurrence + Figure-4 report logic).  Every backend mints one for
  every engine: :class:`BankKernel` itself is the vectorised reference
  (one ``update_columns`` call plus the numpy report per tick), and a
  compiled backend overrides it where it can, which is where it earns
  its keep: one foreign call per tick instead of a dozen numpy
  dispatches — or per batch, admission cascade included, where the
  kernel :attr:`~BankKernel.runs_admission`.

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
canonicalise NaNs before comparing bytes.  The contract covers a
ragged bank's padded cells (columns past a query's length) too: they
hold ``+inf`` in ``d`` and ``0`` in ``s`` on every backend, because a
compiled kernel never writes them and the reference kernel resets them
after each column update.  The cross-backend parity suite
(``tests/properties/test_backend_parity.py``) enforces this on match
streams, column state, and error paths alike; the argument for *why*
the compiled recurrence can be bit-identical lives in
``docs/algorithm.md`` §12.

Backends are runtime properties of an engine, never part of its
serialised state: a checkpoint written under one backend restores under
any other to byte-identical future matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.matches import Match
from repro.obs import tracing

__all__ = ["BackendInfo", "KernelBackend", "BankKernel"]


@dataclass(frozen=True)
class BackendInfo:
    """One row of the backend registry listing (``repro backends``)."""

    #: Registry name (``"numpy"``, ``"cext"``).
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
    """The fused-step kernel bound to one ``FusedSpring`` engine.

    Every engine holds exactly one, minted by
    :meth:`KernelBackend.bank_kernel`.  This class is the vectorised
    reference every backend mints unless it compiles its own fused step
    for the bank's local distance: per tick, the bank's local costs,
    one ``backend.update_columns`` call over the stepped rows (padded
    cells then reset to ``+inf`` / ``0``), then the engine's vectorised
    Figure-4 report (traced as ``kernel.update_columns`` and
    ``policy.report``).  A compiled kernel (cext) overrides the three
    stepping methods with native calls that advance the engine's master
    arrays *in place* and return confirmations in exactly the order
    this reference reports them (ascending query index per tick, ticks
    in stream order).
    """

    __slots__ = ("_engine", "_update_columns")

    #: Whether the stepping methods run as native code (one foreign
    #: call per tick or per block) rather than numpy dispatch.
    compiled = False

    #: Whether :meth:`extend_pruned` runs the admission cascade inside
    #: the compiled loop.  Engines on kernels without it keep the
    #: per-tick Python cascade for pruned ticks and blocks.
    runs_admission = False

    def __init__(self, engine, backend: "KernelBackend") -> None:
        self._engine = engine
        self._update_columns = backend.update_columns

    def step(self, x: float) -> List[Tuple[int, Match]]:
        """Advance every query by one finite stream value."""
        engine = self._engine
        bank = engine.bank
        engine._ticks += 1
        cost = np.asarray(bank.distance(x, bank.padded), dtype=np.float64)
        # update_columns returns fresh arrays; rebinding them is safe
        # because nothing else caches the engine's column matrices.
        engine._d, engine._s = tracing.call(
            "kernel.update_columns", self._update_columns,
            engine._d, engine._s, cost, engine._ticks,
        )
        engine._reset_padding(engine._d, engine._s)
        return tracing.call("policy.report", engine._report_logic)

    def step_rows(self, x: float, hot: np.ndarray) -> List[Tuple[int, Match]]:
        """Advance only the rows the boolean mask ``hot`` marks (the hot
        subset under pruning).

        Only the stepped rows are reported — sound because a query
        only parks with no pending optimum, so parked rows cannot emit.
        """
        engine = self._engine
        bank = engine.bank
        rows = np.flatnonzero(hot)
        engine._ticks[rows] += 1
        cost = np.asarray(bank.distance(x, bank.padded[rows]), dtype=np.float64)
        d_new, s_new = tracing.call(
            "kernel.update_columns", self._update_columns,
            engine._d[rows], engine._s[rows], cost, engine._ticks[rows],
        )
        engine._reset_padding(d_new, s_new, rows)
        engine._d[rows] = d_new
        engine._s[rows] = s_new
        return tracing.call("policy.report", engine._report_logic, hot)

    def extend(
        self, xs: np.ndarray, skip: np.ndarray
    ) -> List[Tuple[int, Match]]:
        """Advance every query through a block of values.

        ``skip`` marks ticks that advance time without a column update
        (the ``missing="skip"`` policy); emissions come back flattened
        in (tick, query-index) order, identical to per-tick stepping.
        """
        engine = self._engine
        out: List[Tuple[int, Match]] = []
        for x, missing in zip(xs.tolist(), skip.tolist()):
            if missing:
                engine._ticks += 1
            else:
                out.extend(self.step(x))
        return out

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

    def bank_kernel(self, engine) -> BankKernel:
        """Mint the fused-step kernel bound to ``engine``.

        The default is the vectorised reference :class:`BankKernel`
        over this backend's :meth:`update_columns` — what the numpy
        backend always uses.  A backend that compiles a fused step for
        the bank's local distance returns its own kernel instead.
        """
        return BankKernel(engine, self)

    def warmup(self) -> float:
        """Force any deferred compilation now; return seconds spent.

        Engines call this at construction so JIT cost can never land
        on the first stream tick.  Idempotent: repeat calls are free.
        """
        return self.warmup_seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} compiled={self.compiled}>"
