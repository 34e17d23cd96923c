"""Stream transforms: input/output adapters around a matcher (layer 3 of 4).

A :class:`StreamTransform` rewrites the stream *before* the kernel sees
it (and the reported coordinates after): online z-normalisation, unit
conversion, resampling.  :class:`TransformedMatcher` wires a transform
in front of any :class:`~repro.core.protocol.Matcher`, so transforms
compose with every matcher variant and policy chain instead of each
wrapper re-implementing its own plumbing:

>>> from repro.core import Spring
>>> from repro.core.transform import TransformedMatcher, ZNormalize
>>> inner = Spring([0.0, 1.0, 0.0], epsilon=0.5)
>>> matcher = TransformedMatcher(inner, ZNormalize(mode="ewm", halflife=50))

Transforms see one value per tick and may *swallow* it (return None) —
time passes for the outer matcher but the inner one never sees the
tick; the match coordinates are mapped back accordingly.  Like report
policies, transforms carry their own checkpoint state and register by
name.
"""

from __future__ import annotations

from dataclasses import replace
from typing import ClassVar, Dict, Iterable, List, Optional, Type

import numpy as np

from repro._validation import check_positive
from repro.core.matches import Match
from repro.core.missing import bad_value_error, resolve_missing_policy
from repro.core.protocol import Capabilities
from repro.exceptions import ValidationError
from repro.obs import tracing
from repro.streams.stats import EwmStats, RunningStats

__all__ = [
    "StreamTransform",
    "ZNormalize",
    "TransformedMatcher",
    "register_transform",
    "registered_transforms",
]


class StreamTransform:
    """Base class: the identity transform.

    Subclasses override :meth:`forward` (per-value rewrite; return None
    to swallow the tick) and optionally :meth:`fit_query` (one-time
    query preparation) and :meth:`map_match` (coordinate mapping for
    emitted matches).
    """

    #: Registry name; subclasses must set this to be checkpointable.
    name: ClassVar[str] = ""

    def fit_query(self, query: np.ndarray) -> np.ndarray:
        """Prepare the query once (e.g. normalise it with its own stats)."""
        return query

    def forward(self, value: float) -> Optional[float]:
        """Rewrite one stream value; None swallows the tick."""
        return value

    def map_match(self, match: Match) -> Match:
        """Map a match from inner-matcher coordinates to stream ticks."""
        return match

    # -- checkpointing -------------------------------------------------

    def config_dict(self) -> dict:
        """Constructor arguments (JSON-safe) to rebuild this transform."""
        return {}

    def state_dict(self) -> dict:
        """Mutable runtime state (JSON-safe)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output."""

    @classmethod
    def from_config(cls, config: dict) -> "StreamTransform":
        return cls(**config)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.config_dict()})"


_TRANSFORMS: Dict[str, Type[StreamTransform]] = {}


def register_transform(cls: Type[StreamTransform]) -> Type[StreamTransform]:
    """Register a transform class for checkpoint round-trips (decorator)."""
    if not cls.name:
        raise ValidationError(f"{cls.__name__} needs a non-empty 'name'")
    existing = _TRANSFORMS.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValidationError(
            f"transform name {cls.name!r} already registered to "
            f"{existing.__name__}"
        )
    _TRANSFORMS[cls.name] = cls
    return cls


def registered_transforms() -> List[str]:
    """Names of all registered transform classes."""
    return sorted(_TRANSFORMS)


@register_transform
class ZNormalize(StreamTransform):
    """Online z-normalisation with running or exponentially-weighted stats.

    The query is normalised once with its own mean/std; stream values
    are normalised with statistics of the history seen so far.  The
    first ``warmup`` ticks are swallowed (std estimates from a couple
    of samples are meaningless), so matches are shifted by ``warmup``
    when mapped back to stream ticks.

    Parameters
    ----------
    mode:
        ``"global"`` — running mean/std over the whole stream history;
        ``"ewm"`` — exponentially weighted, adapting to drift.
    halflife:
        For ``"ewm"``: ticks for a sample's weight to halve.  Validated
        in every mode so a config built in global mode stays usable if
        switched to ewm.
    warmup:
        Ticks to consume before matching starts; must be at least 2
        (std estimates from fewer samples are meaningless).
    missing:
        NaN policy, shared semantics with the matchers
        (:mod:`repro.core.missing`): ``"skip"`` lets NaN pass through
        after warm-up without touching the statistics; ``"error"``
        raises.  inf raises under every policy — an infinite value
        would poison the running mean/std irreversibly.
    """

    name = "znormalize"

    def __init__(
        self,
        mode: str = "global",
        halflife: float = 500.0,
        warmup: int = 10,
        missing: str = "skip",
    ) -> None:
        if mode not in ("global", "ewm"):
            raise ValidationError(
                f"mode must be 'global' or 'ewm', got {mode!r}"
            )
        self.mode = mode
        self.halflife = check_positive(halflife, "halflife")
        warmup = int(warmup)
        if warmup < 2:
            raise ValidationError(
                f"warmup must be at least 2, got {warmup!r}"
            )
        self.warmup = warmup
        self.missing = resolve_missing_policy(missing)
        if mode == "ewm":
            self.stats: object = EwmStats(halflife=self.halflife)
        else:
            self.stats = RunningStats()
        self._seen = 0

    def fit_query(self, query: np.ndarray) -> np.ndarray:
        """Z-normalise the query with its own mean/std."""
        std = float(query.std())
        if std == 0.0:
            raise ValidationError("query is constant; cannot z-normalise")
        return (query - query.mean()) / std

    def forward(self, value: float) -> Optional[float]:
        """Normalise one value with the history statistics so far.

        Non-finite values follow the unified missing policy (NaN
        outranks inf): NaN is a missing reading — under ``"skip"`` it
        never contributes to the statistics and passes through after
        warm-up so the inner matcher applies its own policy; inf is a
        corrupt reading and raises under every policy *before* touching
        the statistics or the tick counter.
        """
        value = float(value)
        if np.isnan(value):
            if self.missing == "error":
                raise bad_value_error(self._seen + 1, True)
            self._seen += 1
            return value if self._seen > self.warmup else None
        if np.isinf(value):
            raise bad_value_error(self._seen + 1, False)
        self._seen += 1
        self.stats.push(value)
        if self._seen <= self.warmup:
            return None
        std = self.stats.std
        if std == 0.0:
            std = 1.0  # constant history: center only
        return (value - self.stats.mean) / std

    def map_match(self, match: Match) -> Match:
        """Shift matches by the warm-up so positions are raw-stream ticks."""
        shift = self.warmup
        return replace(
            match,
            start=match.start + shift,
            end=match.end + shift,
            output_time=(
                None if match.output_time is None
                else match.output_time + shift
            ),
        )

    def config_dict(self) -> dict:
        """Constructor arguments to rebuild this transform."""
        return {
            "mode": self.mode,
            "halflife": self.halflife,
            "warmup": self.warmup,
            "missing": self.missing,
        }

    def state_dict(self) -> dict:
        """Tick counter plus running-statistics state, JSON-safe."""
        return {"seen": self._seen, "stats": self.stats.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output."""
        if not state:
            return
        self._seen = int(state["seen"])
        self.stats.load_state_dict(state["stats"])


class TransformedMatcher:
    """Any matcher, fed through a :class:`StreamTransform`.

    Satisfies the :class:`~repro.core.protocol.Matcher` protocol itself,
    so transforms nest and compose with policies on the inner matcher.
    The declared capabilities are the inner matcher's with
    ``fusable=False`` — the fused engine advances raw streams, and a
    transformed stream is by definition not the raw one.
    """

    def __init__(self, inner: object, transform: StreamTransform) -> None:
        self._inner = inner
        self._transform = transform
        self._tick = 0

    @property
    def inner(self) -> object:
        """The wrapped matcher (matches use *its* tick numbering)."""
        return self._inner

    @property
    def transform(self) -> StreamTransform:
        """The input adapter in front of the matcher."""
        return self._transform

    @property
    def tick(self) -> int:
        """Raw stream ticks consumed (including swallowed ones)."""
        return self._tick

    @property
    def m(self) -> int:
        """Query length."""
        return self._inner.m

    def capabilities(self) -> Capabilities:
        """The inner matcher's capabilities, with fusion disabled."""
        caps = self._inner.capabilities()
        return Capabilities(
            kind=caps.kind,
            fusable=False,
            distance_name=caps.distance_name,
            missing=caps.missing,
        )

    def step(self, value: object) -> Optional[Match]:
        """Consume one raw value; return a match in raw-tick coordinates.

        The tick advances only after the transform accepts the value,
        so a rejected value (e.g. inf, or NaN under ``"error"``) leaves
        the clock where a retry would expect it — mirroring how the
        matchers themselves treat rejected stream values.
        """
        forwarded = tracing.call(
            "transform.forward", self._transform.forward, value
        )
        self._tick += 1
        if forwarded is None:
            return None
        return self._map(self._inner.step(forwarded))

    def extend(self, values: Iterable[object]) -> List[Match]:
        """Consume many raw values; return matches confirmed on the way."""
        matches = []
        for value in values:
            match = self.step(value)
            if match is not None:
                matches.append(match)
        return matches

    def flush(self) -> Optional[Match]:
        """Report a pending match at end-of-stream."""
        return self._map(self._inner.flush())

    def _map(self, match: Optional[Match]) -> Optional[Match]:
        if match is None:
            return None
        return self._transform.map_match(match)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self._transform!r} -> {self._inner!r})"
        )
