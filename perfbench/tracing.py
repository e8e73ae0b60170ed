"""Spans around the program's public layer functions, installed from outside.

``Tracer.install`` reassigns module attributes and methods to wrappers that
record a span (name, start, end, parent) per call; ``uninstall`` puts the
originals back.  Spans live in flat arrays in memory and are written out
once, when the run ends.  A layer's self time is its span's duration minus
the durations of its direct child spans.  A recursive function (``metric``
calls itself through the module attribute) gets one span per outermost call.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Optional

from ltlscope import monitor as _monitor
from ltlscope import rational as _rational
from ltlscope.automata.moore import MooreMachine
from ltlscope.monitor import MonitorInstance
from ltlscope.rational import ActiveSession, ReactiveSession


def _states(counter: str) -> Callable:
    def count(tracer, result, args):
        tracer.counts[counter] += len(result.states)
    return count


def _minimized(tracer, result, args):
    tracer.counts["automata.minimize_states"] += len(result.states)
    if result is args[0]:
        tracer.counts["automata.minimize_skipped"] += 1


def _product(tracer, result, args):
    tracer.counts["automata.product_states"] += len(result.outputs)


# (owner, attribute, span name, unit of its self time, counter hook)
LAYERS = (
    (_monitor, "ltl_to_nba", "automata.tableau", "ms", _states("automata.tableau_states")),
    (_monitor, "quotient_bisim", "automata.quotient", "ms", _states("automata.quotient_states")),
    (_monitor, "nonempty_states", "automata.emptiness", "ms", None),
    (_monitor, "determinize", "automata.determinize", "ms", _states("automata.determinize_states")),
    (_monitor, "minimize", "automata.minimize", "ms", _minimized),
    (_monitor, "product2", "automata.product", "ms", _product),
    (_monitor, "product3", "automata.product", "ms", _product),
    (_monitor, "signed_triple", "formula.signed_triple", "ms", None),
    (_rational, "explicit_trace", "visibility.explicit", "us", None),
    (_rational, "visible_event", "visibility.visible", "us", None),
    (_rational, "expand_witnesses", "visibility.expand", "us", None),
    (_rational, "knowledge_from_event", "visibility.knowledge", "us", None),
    (_rational, "progress", "formula.progress", "us", None),
    (_rational, "metric", "rational.metric", "us", None),
    (_rational, "knapsack", "rational.knapsack", "us", None),
    (_rational, "to_metric_form", "formula.metric_form", "us", None),
    (MonitorInstance, "step", "monitor.step", "us", None),
    (MooreMachine, "step", "monitor.moore_step", "us", None),
    (ActiveSession, "__init__", "rational.session_init", "us", None),
    (ReactiveSession, "__init__", "rational.session_init", "us", None),
)

COUNTERS = ("automata.tableau_states", "automata.quotient_states",
            "automata.determinize_states", "automata.minimize_states",
            "automata.minimize_skipped", "automata.product_states")

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _, _ in LAYERS))
UNITS = {name: unit for _, _, name, unit, _ in LAYERS}
_SCALE = {"ms": 1e3, "us": 1e6}


class Tracer:
    def __init__(self) -> None:
        self.ids = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_time = [0.0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []       # open span indices
        self._child: list[float] = []     # child time of each open span
        self._active = [0] * len(SPAN_NAMES)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook: Optional[Callable]):
        tracer = self
        k = self.ids[name]
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if tracer._active[k]:
                return fn(*args, **kwargs)
            idx = len(tracer.name_of)
            tracer.name_of.append(k)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._child.append(0.0)
            tracer._active[k] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer._active[k] -= 1
                tracer._stack.pop()
                child = tracer._child.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if tracer._child:
                    tracer._child[-1] += t1 - t0
                tracer.calls[k] += 1
                tracer.self_time[k] += (t1 - t0) - child
            if hook is not None:
                hook(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, _, hook in LAYERS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def mean_self(self, name: str) -> float:
        """Mean self time per call in the layer's unit; 0 with no calls."""
        k = self.ids[name]
        if not self.calls[k]:
            return 0.0
        return self.self_time[k] / self.calls[k] * _SCALE[UNITS[name]]

    def write(self, path: str) -> None:
        """Spans as JSON: parallel arrays in the order spans opened, times in
        seconds from the first span's start, parent -1 for a root span."""
        base = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(SPAN_NAMES),
                       "name": list(self.name_of),
                       "parent": list(self.parent),
                       "start": [round(t - base, 9) for t in self.start],
                       "end": [round(t - base, 9) for t in self.end]}, fh)
