"""Cascade SPRING: coarse-resolution pre-filter + full verification.

An FTW-flavoured extension (the paper's own prior work [17] accelerates
stored-set DTW with coarse-to-fine approximation): run SPRING against a
downsampled query over a downsampled stream — an O(m / r²) per-tick
pre-filter — and verify each coarse hit at full resolution over a
bounded window of buffered recent values.

Unlike SPRING itself this *can* miss matches (downsampling loses
detail), so it trades the paper's no-false-dismissal guarantee for
per-tick cost; the ablation benchmark quantifies both sides.  Matches
that do come out carry exact full-resolution distances and positions,
because verification reruns real SPRING on the buffered window.

In the layered architecture the cascade is a transform-flavoured
matcher that satisfies the :class:`~repro.core.protocol.Matcher`
protocol: report policies attach to its *verified* output (admission
gates and transforms see full-resolution stream coordinates), and the
whole two-stage state — coarse matcher, ring buffer, partial block —
checkpoints and resumes exactly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro._serde import decode_float, decode_floats, encode_float, encode_floats
from repro._validation import as_scalar_sequence, check_threshold
from repro.core.checkpoint import load_state, register_matcher, save_state
from repro.core.matches import Match
from repro.core.policy import ReportPolicy, decode_policies, encode_policies
from repro.core.protocol import Capabilities
from repro.core.registry import register_matcher_kind
from repro.obs import tracing
from repro.core.spring import Spring
from repro.dtw.steps import LocalDistance
from repro.exceptions import ValidationError
from repro.streams.buffer import RingBuffer

__all__ = ["CascadeSpring"]


class CascadeSpring:
    """Two-stage streaming matcher: coarse SPRING, then exact SPRING.

    Parameters
    ----------
    query:
        Full-resolution query Y (1-D).
    epsilon:
        Full-resolution disjoint threshold.
    reduction:
        Downsampling factor r >= 1 (1 = plain SPRING).  The coarse
        stage averages r consecutive values into one coarse tick, and
        the coarse query is the same reduction of Y.
    coarse_slack:
        Coarse-threshold multiplier: the pre-filter fires when the
        coarse distance is within ``coarse_slack * epsilon / r``.
        (Averaging r values scales accumulated squared costs by ~1/r;
        slack > 1 keeps borderline matches alive.)
    buffer_factor:
        The verification buffer holds ``buffer_factor * m`` recent
        values; coarse hits older than that cannot be verified.
    policies:
        Report policies on the verified output: admission gates filter
        by full-resolution ``(start, end)``, transforms rewrite or
        suppress the emitted match.
    """

    def __init__(
        self,
        query: object,
        epsilon: float,
        reduction: int = 4,
        coarse_slack: float = 2.0,
        buffer_factor: float = 4.0,
        local_distance: Union[str, LocalDistance, None] = None,
        policies: Sequence[ReportPolicy] = (),
    ) -> None:
        self._query = as_scalar_sequence(query, "query")
        self.epsilon = check_threshold(epsilon)
        self.reduction = int(reduction)
        if self.reduction < 1:
            raise ValidationError(
                f"reduction must be >= 1, got {reduction}"
            )
        if coarse_slack <= 0:
            raise ValidationError(
                f"coarse_slack must be positive, got {coarse_slack}"
            )
        self.coarse_slack = float(coarse_slack)
        self.buffer_factor = float(buffer_factor)
        self._local_distance = local_distance

        m = self._query.shape[0]
        coarse_query = self._reduce(self._query)
        coarse_epsilon = self.coarse_slack * self.epsilon / self.reduction
        self._coarse = Spring(
            coarse_query, epsilon=coarse_epsilon, local_distance=local_distance
        )
        capacity = max(int(self.buffer_factor * m), m + 4 * self.reduction)
        self._buffer = RingBuffer(capacity)
        self._block: List[float] = []
        self._tick = 0
        self._last_verified_end = 0

        self._policies = tuple(policies)
        for policy in self._policies:
            policy.bind(m)
        self._admission = tuple(p for p in self._policies if p.gates_admission)

    @property
    def tick(self) -> int:
        """Full-resolution stream values consumed."""
        return self._tick

    @property
    def m(self) -> int:
        """Full-resolution query length."""
        return self._query.shape[0]

    @property
    def policies(self) -> tuple:
        """The attached report-policy chain (possibly empty)."""
        return self._policies

    def capabilities(self) -> Capabilities:
        """Never bank-fusable: the cascade's per-tick behaviour is not
        the plain Figure-4 recurrence over the raw stream."""
        return Capabilities(
            kind="scalar",
            fusable=False,
            distance_name=self._coarse.distance_name,
            missing="skip",
        )

    def _reduce(self, values: np.ndarray) -> np.ndarray:
        if self.reduction == 1:
            return values.copy()
        r = self.reduction
        usable = (values.shape[0] // r) * r
        if usable == 0:
            return values.copy()  # query shorter than one block
        return values[:usable].reshape(-1, r).mean(axis=1)

    def step(self, value: float) -> Optional[Match]:
        """Consume one full-resolution value; maybe a verified match."""
        value = float(value)
        self._tick += 1
        self._buffer.push(value)
        if np.isnan(value):
            self._block.clear()  # an incomplete block with gaps is void
            return None
        self._block.append(value)
        if len(self._block) < self.reduction:
            return None
        coarse_value = float(np.mean(self._block))
        self._block.clear()
        coarse_match = self._coarse.step(coarse_value)
        if coarse_match is None:
            return None
        return self._verify(coarse_match)

    def extend(self, values: Iterable[float]) -> List[Match]:
        """Consume many values; return verified matches."""
        matches = []
        for value in values:
            match = self.step(value)
            if match is not None:
                matches.append(match)
        return matches

    def flush(self) -> Optional[Match]:
        """Verify a pending coarse candidate at end-of-stream."""
        coarse_final = self._coarse.flush()
        if coarse_final is None:
            return None
        return self._verify(coarse_final, flushing=True)

    def apply_report_policies(
        self, match: Match, flushing: bool = False
    ) -> Optional[Match]:
        """Run a verified match through the policy transform chain."""
        for policy in self._policies:
            match = policy.transform(match, flushing=flushing)
            if match is None:
                return None
        return match

    def _verify(self, coarse: Match, flushing: bool = False) -> Optional[Match]:
        """Exact SPRING over the buffered window around a coarse hit."""
        return tracing.call("cascade.verify", self._verify_window, coarse, flushing)

    def _verify_window(
        self, coarse: Match, flushing: bool = False
    ) -> Optional[Match]:
        r = self.reduction
        margin = 2 * r
        start_tick = max(1, (coarse.start - 1) * r + 1 - margin)
        end_tick = min(self._tick, coarse.end * r + margin)
        start_tick = max(start_tick, self._buffer.oldest_tick)
        start_tick = max(start_tick, self._last_verified_end + 1)
        if end_tick < start_tick:
            return None
        window = self._buffer.window(start_tick, end_tick)
        if np.isnan(window).all():
            return None
        # NaNs ride through: the exact matcher's missing="skip" policy
        # advances time without state changes, keeping positions true.
        fine = Spring(
            self._query,
            epsilon=self.epsilon,
            local_distance=self._local_distance,
        )
        best: Optional[Match] = None
        for match in fine.extend(window) + (
            [fine.flush()] if fine.has_pending else []
        ):
            if match and (best is None or match.distance < best.distance):
                best = match
        if best is None:
            return None
        offset = start_tick - 1
        self._last_verified_end = best.end + offset
        verified = Match(
            start=best.start + offset,
            end=best.end + offset,
            distance=best.distance,
            output_time=self._tick,
        )
        for policy in self._admission:
            if not policy.admit(verified.start, verified.end):
                return None
        return self.apply_report_policies(verified, flushing=flushing)

    # -- checkpointing -------------------------------------------------

    def state_dict(self) -> dict:
        """Serialise to a JSON-safe dict (see :mod:`repro.core.checkpoint`)."""
        distance_name = self._coarse.distance_name
        if distance_name is None:
            raise ValidationError(
                "cannot checkpoint a matcher with an unnamed local-distance "
                "callable; pass a registered distance name instead"
            )
        state: dict = {
            "query": encode_floats(self._query),
            "epsilon": encode_float(self.epsilon),
            "reduction": self.reduction,
            "coarse_slack": self.coarse_slack,
            "buffer_factor": self.buffer_factor,
            "local_distance": distance_name,
            "tick": self._tick,
            "block": list(self._block),
            "last_verified_end": self._last_verified_end,
            "buffer": self._buffer.state_dict(),
            "coarse": save_state(self._coarse),
        }
        if self._policies:
            state["policies"] = encode_policies(self._policies)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "CascadeSpring":
        matcher = cls(
            decode_floats(state["query"]),
            epsilon=decode_float(state["epsilon"]),
            reduction=int(state["reduction"]),
            coarse_slack=float(state["coarse_slack"]),
            buffer_factor=float(state["buffer_factor"]),
            local_distance=state["local_distance"],
            policies=decode_policies(state.get("policies", [])),
        )
        matcher._coarse = load_state(state["coarse"])
        matcher._buffer.load_state_dict(state["buffer"])
        matcher._block = [float(v) for v in state["block"]]
        matcher._tick = int(state["tick"])
        matcher._last_verified_end = int(state["last_verified_end"])
        return matcher


register_matcher(CascadeSpring)
register_matcher_kind("cascade", CascadeSpring)
