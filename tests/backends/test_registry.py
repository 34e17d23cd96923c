"""Backend registry: selection precedence, strictness, degradation.

The registry's contract (``repro.core.backends``):

* precedence — explicit spec > process default (``set_default_backend``
  / ``use_backend``) > ``REPRO_BACKEND`` env var > ``"auto"``;
* ``"auto"`` degrades silently through the priority order and always
  lands somewhere (numpy is unconditionally available);
* explicit names are strict — unknown or unavailable backends raise
  :class:`~repro.exceptions.ValidationError` carrying the probe detail;
* a warm-up failure is cached as unavailability, so a broken compiled
  backend can never be handed out, not even once.

Tests that register throwaway backends snapshot and restore the
registry so nothing leaks into other tests.
"""

from __future__ import annotations

import pytest

import repro.core.backends as bk
from repro.core.backends import (
    KernelBackend,
    available_backends,
    backend_infos,
    best_compiled,
    register_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.exceptions import ValidationError


@pytest.fixture(autouse=True)
def _pristine_registry(monkeypatch):
    """Snapshot the registry + default spec; restore after each test."""
    saved_entries = dict(bk._REGISTRY)
    saved_default = bk._DEFAULT_SPEC
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    yield
    bk._REGISTRY.clear()
    bk._REGISTRY.update(saved_entries)
    set_default_backend(saved_default)


class _FakeBackend(KernelBackend):
    name = "fake"
    compiled = True


def _register_fake(priority=99, warmup_error=None, name="fake"):
    backend = _FakeBackend()
    backend.name = name
    if warmup_error is not None:
        def failing_warmup():
            raise RuntimeError(warmup_error)

        backend.warmup = failing_warmup
    register_backend(name, lambda: (backend, "test double"), priority=priority)
    return backend


# ----------------------------------------------------------------------
# Availability listing
# ----------------------------------------------------------------------


def test_numpy_is_always_available():
    assert "numpy" in available_backends()


def test_infos_sorted_by_priority_and_carry_detail():
    infos = backend_infos()
    priorities = [info.priority for info in infos]
    assert priorities == sorted(priorities, reverse=True)
    by_name = {info.name: info for info in infos}
    assert {"numpy", "cext"} <= set(by_name)
    assert by_name["numpy"].available
    assert not by_name["numpy"].compiled
    for info in infos:
        assert isinstance(info.detail, str) and info.detail


def test_best_compiled_consistent_with_listing():
    best = best_compiled()
    available = available_backends()
    compiled = [
        info.name
        for info in backend_infos()
        if info.compiled and info.name in available
    ]
    if compiled:
        assert best == compiled[0]  # infos are priority-sorted
    else:
        assert best is None


# ----------------------------------------------------------------------
# Resolution and precedence
# ----------------------------------------------------------------------


def test_auto_resolves_to_highest_priority_available():
    backend = resolve_backend("auto")
    assert backend.name == available_backends()[0]


def test_default_spec_is_auto():
    assert resolve_backend(None).name == resolve_backend("auto").name


def test_explicit_name_beats_process_default():
    with use_backend("auto"):
        assert resolve_backend("numpy").name == "numpy"


def test_resolved_instance_passes_through():
    backend = resolve_backend("numpy")
    assert resolve_backend(backend) is backend


def test_process_default_beats_env(monkeypatch):
    # An env var pointing at a *broken* name proves it is not consulted
    # while a process default is installed.
    monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
    with use_backend("numpy"):
        assert resolve_backend(None).name == "numpy"
    with pytest.raises(ValidationError):
        resolve_backend(None)  # default cleared -> env consulted -> boom


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert resolve_backend(None).name == "numpy"


def test_name_is_case_insensitive_and_stripped():
    assert resolve_backend("  NumPy ").name == "numpy"


def test_use_backend_restores_previous_default():
    set_default_backend("numpy")
    with use_backend("auto"):
        assert bk._DEFAULT_SPEC == "auto"
    assert bk._DEFAULT_SPEC == "numpy"
    with pytest.raises(RuntimeError):
        with use_backend("auto"):
            raise RuntimeError("boom")
    assert bk._DEFAULT_SPEC == "numpy"


# ----------------------------------------------------------------------
# Strictness for explicit names
# ----------------------------------------------------------------------


def test_unknown_name_raises_with_choices():
    with pytest.raises(ValidationError, match="auto"):
        resolve_backend("no-such-backend")


def test_unavailable_name_raises_with_reason():
    register_backend(
        "absent", lambda: (None, "needs the absent toolchain"), priority=99
    )
    # auto silently degrades past it...
    assert resolve_backend("auto").name != "absent"
    # ...explicit naming surfaces the loader's reason.
    with pytest.raises(
        ValidationError, match="'absent' is unavailable: needs the absent toolchain"
    ):
        resolve_backend("absent")


# ----------------------------------------------------------------------
# Registration and graceful degradation
# ----------------------------------------------------------------------


def test_registered_backend_wins_auto_at_top_priority():
    backend = _register_fake(priority=99)
    assert resolve_backend("auto") is backend
    assert available_backends()[0] == "fake"


def test_loader_runs_at_most_once():
    calls = []

    def loader():
        calls.append(1)
        return _FakeBackend(), "counted"

    register_backend("counted", loader, priority=98)
    resolve_backend("counted")
    resolve_backend("counted")
    backend_infos()
    assert len(calls) == 1


def test_loader_failure_is_unavailability_not_a_crash():
    def loader():
        raise ImportError("nope")

    register_backend("broken", loader, priority=99)
    # auto silently degrades past it...
    assert resolve_backend("auto").name != "broken"
    # ...explicit naming surfaces the reason.
    with pytest.raises(ValidationError, match="ImportError"):
        resolve_backend("broken")


def test_warmup_failure_is_cached_unavailability():
    _register_fake(priority=99, warmup_error="jit exploded")
    # auto degrades to the next tier without raising.
    assert resolve_backend("auto").name != "fake"
    with pytest.raises(ValidationError, match="warm-up failed"):
        resolve_backend("fake")
    # The failure is memoised as unavailable in the listing too.
    info = [i for i in backend_infos() if i.name == "fake"][0]
    assert not info.available
    assert "jit exploded" in info.detail
