"""Wall-clock timing normalised by an interleaved reference loop.

On a small VM the speed of the same pure-Python work drifts by more than
a factor of two within seconds, and process CPU time follows wall time, so
a CPU clock does not help.  Every timed block of work is therefore bracketed by laps of a
fixed pure-Python reference loop, and each block's wall time is scaled by
``REF_NOMINAL_S / mean(reference lap before, reference lap after)``.  A
reported time is thus the wall time the work would have taken on a host
where one reference lap takes ``REF_NOMINAL_S``.  A change to the program
moves the block time and not the reference lap, so it shows undiluted.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# The reference lap imitates the program's own inner loops: a subset
# construction over frozensets kept in a dict, signature-based partition
# refinement, and churn of small objects.  Over ints only, so it does not
# depend on the hash seed.  Of the laps tried, this one followed the speed
# of synthesis and of rover stepping most closely.
REF_SUBSETS = 700
REF_NODES = 3000
REF_NOMINAL_S = 0.050
BLOCK_S = 0.1


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key, next_node):
        self.key = key
        self.next = next_node


def _ref_work() -> int:
    ids: dict = {}
    work = [frozenset({0})]
    i = 0
    while i < len(work) and i < REF_SUBSETS:
        subset = work[i]
        i += 1
        for letter in range(4):
            succ = frozenset((q * 7 + letter * 3 + 1) % 2003 for q in subset) | {(i * letter) % 2003}
            if len(succ) > 6:
                succ = frozenset(sorted(succ)[:6])
            if succ not in ids:
                ids[succ] = len(ids)
                work.append(succ)
    block = {s: len(s) % 3 for s in ids}
    for _ in range(3):
        remap: dict = {}
        block = {s: remap.setdefault((block[s], tuple(block.get(frozenset(sorted(s)[:k]), -1)
                                                      for k in range(3))), len(remap))
                 for s in ids}
    nodes = [_Node(k, _Node(k, None)) for k in range(REF_NODES)]
    return sum(n.next.key for n in nodes) + len(remap)


def reference_lap() -> float:
    """Time one lap with the cyclic garbage collector off: a collection of
    the program's heap, triggered by the lap's allocations, would otherwise
    land in the lap (up to five times its length on metric-sessions).  The
    lap frees everything it allocates, so it leaves no debt for the next
    collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _ref_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Sample:
    """Normalised timings of one pass over a list of steps."""

    latencies: list[float] = field(default_factory=list)  # per step, seconds
    total: float = 0.0                                     # whole pass, seconds
    raw_total: float = 0.0                                 # the same, not normalised
    results: list = field(default_factory=list)
    errors: list = field(default_factory=list)             # (index, exception)
    factors: list[float] = field(default_factory=list)     # one per block


class Timer:
    """Runs steps in blocks of about ``BLOCK_S`` wall seconds, each block
    followed by a reference lap; the lap before a block is the one that
    ended the previous block."""

    def __init__(self) -> None:
        self._last_ref = reference_lap()

    def run(self, n: int, step: Callable[[int], object],
            prelude: Optional[Callable[[], None]] = None) -> Sample:
        """Time ``prelude()`` (counted in the total only) and then
        ``step(0) .. step(n-1)``.  A step that raises is recorded in
        ``errors`` and its result is ``None``."""
        out = Sample()
        perf = time.perf_counter
        i = 0
        first = True
        while first or i < n:
            raw: list[float] = []
            block_start = perf()
            if first and prelude is not None:
                prelude()
            first = False
            while i < n:
                t0 = perf()
                try:
                    result = step(i)
                except Exception as exc:  # an operation that fails is counted, not fatal
                    result = None
                    out.errors.append((i, exc))
                raw.append(perf() - t0)
                out.results.append(result)
                i += 1
                if perf() - block_start >= BLOCK_S:
                    break
            block = perf() - block_start
            ref = reference_lap()
            factor = REF_NOMINAL_S / ((self._last_ref + ref) / 2.0)
            self._last_ref = ref
            out.factors.append(factor)
            out.latencies.extend(t * factor for t in raw)
            out.total += block * factor
            out.raw_total += block
        return out
