"""Pin the admission strategy of monitor-built banks for a test.

Monitors, checkpoint loaders, the service and the runtime have no
admission option: each bank's size picks its strategy
(:data:`repro.core.admission.AUTO_GROUP_MIN_QUERIES`), in groups of
:data:`~repro.core.admission.DEFAULT_GROUP_SIZE`.  Tests that sweep both
strategies through those layers move the size rule instead.  Plans are
built at a monitor's first push and at checkpoint restore, so the block
must cover those (and, for the wire, the server's whole life).  A plain
context manager rather than a fixture: Hypothesis tests cannot use
function-scoped ``monkeypatch``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core import admission


@contextmanager
def pin_admission(kind: str, group_size: Optional[int] = None) -> Iterator[None]:
    """Make every bank built inside the block run ``kind`` admission
    (``"flat"`` or ``"grouped"``), with ``group_size`` queries per
    merged-envelope group when given."""
    if kind not in ("flat", "grouped"):
        raise ValueError(f"cannot pin admission to {kind!r}")
    saved = (admission.AUTO_GROUP_MIN_QUERIES, admission.DEFAULT_GROUP_SIZE)
    admission.AUTO_GROUP_MIN_QUERIES = 1 if kind == "grouped" else sys.maxsize
    if group_size is not None:
        admission.DEFAULT_GROUP_SIZE = int(group_size)
    try:
        yield
    finally:
        admission.AUTO_GROUP_MIN_QUERIES, admission.DEFAULT_GROUP_SIZE = saved
