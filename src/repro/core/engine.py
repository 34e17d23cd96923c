"""Execution layer: choose how a set of matchers advances each tick.

Layer 4 of the architecture.  Given the matchers attached to one
stream, :func:`build_plan` partitions them into

* **fused banks** — matchers whose declared
  :class:`~repro.core.protocol.Capabilities` say their per-tick
  behaviour is exactly the plain scalar Figure-4 recurrence; they
  advance together through one
  :class:`~repro.core.fused.FusedSpring` column update per tick, and
  their transform-only policies are applied to the bank's emissions.
  A group of one banks too when its bank kernel is compiled (cext):
  a whole batch, admission included, is then one native call instead
  of one foreign column update plus one Python report per tick; and
* **per-matcher execution** — everything else (vector streams, path
  recording, admission gating, observers, transforms, and a lone
  fusable matcher on the numpy reference kernel) keeps its own
  scalar/blocked path.

Selection is purely capability-driven: no ``type(spring) is Spring``
checks, so new matcher classes opt into fused execution by declaring
``fusable=True``.  Banks group by missing policy and by the *declared
distance name* — callable identity is only the fallback for unnamed
custom distances — so equivalent-but-distinct distance specs
(``None``, ``"squared"``, the function object itself) land in one bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.backends import BackendSpec
from repro.core.fused import FusedSpring
from repro.core.matches import Match
from repro.obs import tracing

__all__ = ["FusedBank", "ExecutionPlan", "fusion_key", "build_plan"]


@dataclass
class FusedBank:
    """One fused engine serving several bank-compatible matchers."""

    engine: FusedSpring
    names: List[str]
    matchers: List[object]

    def step(self, value: object) -> List[Tuple[int, Match]]:
        """Advance every banked matcher one tick (traced as bank dispatch)."""
        return tracing.call("engine.bank_step", self.engine.step, value)

    def extend(self, values: Iterable[object]) -> List[Tuple[int, Match]]:
        """Advance every banked matcher through a batch of values."""
        return tracing.call("engine.bank_extend", self.engine.extend, values)

    def write_back(self) -> None:
        """Copy bank state back into the per-query matchers.

        Parked queries are written at their *applied* tick — a valid
        historical state.  Call :meth:`sync` instead when the matchers
        must reflect the full stream (hand-off, teardown).
        """
        self.engine.write_back(self.matchers)

    def sync(self) -> None:
        """Catch up every parked query, then copy state back exactly."""
        self.engine.catch_up_all()
        self.engine.write_back(self.matchers)

    def prune_counters(self) -> Tuple[int, int, int, int, int]:
        """Live ``(pruned_ticks, replays, replayed_ticks,
        groups_certified, group_descents)`` of the engine."""
        engine = self.engine
        return (
            engine.pruned_ticks,
            engine.replays,
            engine.replayed_ticks,
            engine.groups_certified,
            engine.group_descents,
        )


@dataclass
class ExecutionPlan:
    """How one stream's matchers execute: banks plus the banked name set."""

    banks: List[FusedBank] = field(default_factory=list)
    banked: frozenset = frozenset()
    #: Matcher names left to per-matcher execution, in registration
    #: order (precomputed so per-tick dispatch need not re-derive it).
    unbanked: Tuple[str, ...] = ()


def fusion_key(matcher: object) -> Optional[Tuple]:
    """Bank-compatibility key for a matcher, or None when not fusable.

    Two matchers may share a bank iff their keys are equal: same missing
    policy and same local distance, where "same distance" means equal
    canonical names when declared, with callable identity as the
    fallback for unnamed custom distances.
    """
    capabilities = getattr(matcher, "capabilities", None)
    if not callable(capabilities):
        return None
    caps = capabilities()
    if not caps.fusable:
        return None
    if caps.distance_name is not None:
        distance_key: Tuple = ("name", caps.distance_name)
    else:
        distance_key = ("id", id(matcher._distance))
    return (caps.missing, distance_key)


def build_plan(
    matchers: Mapping[str, object],
    prune_buffer: Optional[int] = None,
    backend: BackendSpec = None,
) -> ExecutionPlan:
    """Partition a stream's matchers into fused banks + individual runs.

    Matchers not covered by ``plan.banked`` run their own ``step`` /
    ``extend``; banked ones advance through ``plan.banks`` and have
    their transform-only policies applied to bank emissions via
    ``matcher.apply_report_policies``.  Every fusable group of two or
    more is banked.  A group of one is banked only when its minted
    bank kernel is compiled
    (:attr:`~repro.core.fused.FusedSpring.compiled_step`): on
    cext a one-query bank runs a batch as one native call, while on
    the numpy reference kernel it is slower than the matcher's own
    blocked ``extend``, which it then keeps.

    ``prune_buffer`` enables the exact lower-bound admission cascade on
    every bank it applies to (see :class:`~repro.core.fused.FusedSpring`);
    emissions are byte-identical with or without it.  Each bank's size
    picks its admission strategy: grouped admission from
    :data:`~repro.core.admission.AUTO_GROUP_MIN_QUERIES` queries, the
    flat cascade below, with byte-identical decisions either way (see
    :mod:`repro.core.admission`).  ``backend`` selects the kernel
    backend for every bank built here (results are bit-identical
    across backends).
    """
    groups: Dict[Tuple, List[str]] = {}
    for name, matcher in matchers.items():
        key = fusion_key(matcher)
        if key is not None:
            groups.setdefault(key, []).append(name)
    banks: List[FusedBank] = []
    banked: set = set()
    for names in groups.values():
        group = [matchers[n] for n in names]
        engine = FusedSpring.from_springs(
            group,
            prune_buffer=prune_buffer,
            backend=backend,
        )
        if len(group) == 1 and not engine.compiled_step:
            continue
        banks.append(FusedBank(engine=engine, names=list(names), matchers=group))
        banked.update(names)
    return ExecutionPlan(
        banks=banks,
        banked=frozenset(banked),
        unbanked=tuple(n for n in matchers if n not in banked),
    )
