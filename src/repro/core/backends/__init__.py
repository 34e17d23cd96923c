"""Kernel backend registry: selection, availability, graceful fallback.

Two backends ship registered:

========  ========  ========================================================
name      priority  implementation
========  ========  ========================================================
cext      20        embedded C source compiled on demand with the system C
                    compiler, loaded via :mod:`ctypes` (no dependency)
numpy     10        the vectorised NumPy reference — always available
========  ========  ========================================================

Every backend mints the bank kernel of every fused engine: numpy's is
the vectorised reference (:class:`BankKernel`), cext compiles its own
for the named local distances.

Selection precedence, highest first:

1. an explicit spec passed to a constructor / CLI flag (``backend=...``),
2. a process default installed with :func:`set_default_backend` or the
   :func:`use_backend` context manager,
3. the ``REPRO_BACKEND`` environment variable,
4. ``"auto"`` — the available backend with the highest priority.

``"auto"`` degrades silently (an unavailable or warm-up-failing backend
just yields to the next tier; numpy is always there).  Requesting a
backend *by name* is strict: if it cannot be used, resolution raises
:class:`~repro.exceptions.ValidationError` carrying the reason — the
same reason ``repro backends`` prints.

Backends are probed lazily and cached for the process: the C
compilation happens at most once, at first resolution, never on a
stream tick.  The backend in use is a runtime property only — it
is never serialised into checkpoints, and every backend produces
bit-identical results by contract (see :mod:`repro.core.backends.base`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.backends.base import BackendInfo, BankKernel, KernelBackend
from repro.core.backends.numpy_backend import NumpyBackend
from repro.exceptions import ValidationError

__all__ = [
    "BackendInfo",
    "BankKernel",
    "KernelBackend",
    "NumpyBackend",
    "available_backends",
    "backend_infos",
    "best_compiled",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]

#: Spec accepted wherever a backend can be chosen: a registry name,
#: ``"auto"``, an already-resolved backend, or ``None`` (= defaults).
BackendSpec = Union[str, KernelBackend, None]

_ENV_VAR = "REPRO_BACKEND"


class _Entry:
    """One registered backend: lazy, memoised probe + warm-up."""

    def __init__(
        self,
        name: str,
        loader: Callable[[], Tuple[Optional[KernelBackend], str]],
        priority: int,
        compiled: bool,
    ) -> None:
        self.name = name
        self.priority = priority
        self.compiled = compiled
        self._loader = loader
        self._probed = False
        self._backend: Optional[KernelBackend] = None
        self._detail = ""
        self._warm_failure: Optional[str] = None

    def load(self) -> Optional[KernelBackend]:
        """Probe once (import / compile / self-test); cache the outcome."""
        if not self._probed:
            try:
                self._backend, self._detail = self._loader()
            except Exception as exc:  # pragma: no cover - loader contract
                self._backend = None
                self._detail = f"{type(exc).__name__}: {exc}"
            self._probed = True
        return self._backend

    def ready(self) -> Optional[KernelBackend]:
        """:meth:`load` plus warm-up; a warm-up failure is cached as
        unavailability (graceful degradation for ``auto``)."""
        backend = self.load()
        if backend is None or self._warm_failure is not None:
            return None
        try:
            backend.warmup()
        except Exception as exc:
            self._warm_failure = (
                f"kernel warm-up failed: {type(exc).__name__}: {exc}"
            )
            return None
        return backend

    @property
    def detail(self) -> str:
        return self._warm_failure or self._detail

    def info(self) -> BackendInfo:
        backend = self.load()
        return BackendInfo(
            name=self.name,
            priority=self.priority,
            compiled=self.compiled,
            available=backend is not None and self._warm_failure is None,
            detail=self.detail,
        )


_REGISTRY: Dict[str, _Entry] = {}
_DEFAULT_SPEC: BackendSpec = None


def register_backend(
    name: str,
    loader: Callable[[], Tuple[Optional[KernelBackend], str]],
    priority: int,
    compiled: bool = True,
) -> None:
    """Register (or replace) a backend.

    ``loader`` runs at most once per process and returns
    ``(backend, detail)`` — ``backend is None`` meaning unavailable,
    with ``detail`` carrying the reason.
    """
    _REGISTRY[str(name).lower()] = _Entry(
        str(name).lower(), loader, int(priority), bool(compiled)
    )


def _by_priority() -> List[_Entry]:
    return sorted(_REGISTRY.values(), key=lambda e: -e.priority)


def backend_infos() -> List[BackendInfo]:
    """Registry listing, highest priority first (probes, no warm-up)."""
    return [entry.info() for entry in _by_priority()]


def available_backends() -> List[str]:
    """Names of backends usable right now, highest priority first."""
    return [e.name for e in _by_priority() if e.ready() is not None]


def best_compiled() -> Optional[str]:
    """Highest-priority *compiled* backend usable right now, if any."""
    for entry in _by_priority():
        if entry.compiled and entry.ready() is not None:
            return entry.name
    return None


def resolve_backend(spec: BackendSpec = None) -> KernelBackend:
    """Resolve a backend spec to a ready (warmed-up) backend.

    See the module docstring for precedence.  ``"auto"`` never fails;
    explicit names raise :class:`ValidationError` when unknown or
    unavailable.
    """
    if spec is None:
        spec = _DEFAULT_SPEC
    if spec is None:
        spec = os.environ.get(_ENV_VAR) or "auto"
    if isinstance(spec, KernelBackend):
        return spec
    name = str(spec).strip().lower()
    if name == "auto":
        for entry in _by_priority():
            backend = entry.ready()
            if backend is not None:
                return backend
        raise ValidationError(  # pragma: no cover - numpy is always ready
            "no kernel backend available"
        )
    entry = _REGISTRY.get(name)
    if entry is None:
        choices = sorted(_REGISTRY) + ["auto"]
        raise ValidationError(
            f"unknown kernel backend {name!r}; choose from {choices}"
        )
    backend = entry.ready()
    if backend is None:
        raise ValidationError(
            f"kernel backend {name!r} is unavailable: {entry.detail}"
        )
    return backend


def set_default_backend(spec: BackendSpec) -> None:
    """Install a process-wide default spec (``None`` clears it).

    The default sits between explicit arguments and the environment
    variable in precedence; it is resolved lazily at each call site.
    """
    global _DEFAULT_SPEC
    _DEFAULT_SPEC = spec


@contextmanager
def use_backend(spec: BackendSpec):
    """Scoped :func:`set_default_backend` (used heavily by the parity
    tests to pin engines without threading arguments everywhere)."""
    global _DEFAULT_SPEC
    previous = _DEFAULT_SPEC
    _DEFAULT_SPEC = spec
    try:
        yield
    finally:
        _DEFAULT_SPEC = previous


# ----------------------------------------------------------------------
# Built-in registrations (lazy loaders; nothing imports or compiles yet)
# ----------------------------------------------------------------------

_NUMPY_BACKEND = NumpyBackend()
register_backend(
    "numpy", lambda: (_NUMPY_BACKEND, "always available"), priority=10,
    compiled=False,
)


def _load_cext():
    from repro.core.backends import cext

    return cext.probe()


register_backend("cext", _load_cext, priority=20, compiled=True)
