"""Command-line surface: synthesis, verification, the case-study grid and
the metric-comparison experiment.

Each input is checked by the code that owns it.  ``main`` alone turns a
refusal into one line on stderr and exit status 2: a ``Refusal`` raised
here, or a formula (``ParseError``, ``TooWideError``) or classes
(``UncoveredAtomError``) error of the library.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Callable, Optional, Sequence

from . import casestudy
from .automata.dot import moore_to_dot
from .automata.moore import Verdict
from .automata.pipeline import TooWideError
from .formula import (Formula, ParseError, SLit, UncoveredAtomError,
                      is_atom_name, is_literal_name, parse_formula, parse_slit)
from .monitor import (MonitorInstance, machine_from_json, machine_to_json,
                      synthesize_imperfect, synthesize_standard)
from .randgen import (derive_seed, experiment_visibility, random_formula,
                      random_plain_trace)
from .rational import (METRICS, ActiveSession, RationalConfig, ReactiveSession,
                       active_monitor)
from .visibility import (EqClass, VisibilitySpec, check_consistent, explicit_trace,
                         parse_classes, rendering_map, visible_event, witness_names)


class Refusal(Exception):
    """An input a command refuses; ``main`` prints its one-line message on
    stderr and returns 2."""


# ---------------------------------------------------------------------------
# File format helpers
# ---------------------------------------------------------------------------

def _read_text(path: str, what: str) -> str:
    """The text of a file named on the command line; a file that cannot be
    read exits with one line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise Refusal(f"{what} error: {exc}")


def _write_text(path: str, text: str, what: str) -> None:
    """Write a file named on the command line; a file that cannot be
    written exits with one line."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise Refusal(f"{what} error: {exc}")


def _read_events(path: str, lines: list[str],
                 event_of: Callable[[list[str]], frozenset]) -> list[frozenset]:
    """The events of trace file ``path``'s ``lines``, each of comma or space
    separated tokens.  ``event_of`` makes a line's tokens into its event
    once per distinct line text; a ``ValueError`` it raises is refused with
    the line.  Equal events are one object, so a long trace holds each
    distinct event once, and the monitor finds that object in its checked
    events (``MooreMachine.validated``) and in each component's
    remembered successors (``DFA.successors``) without comparing items."""
    events = []
    by_line: dict[str, frozenset] = {}
    distinct: dict[frozenset, frozenset] = {}
    for i, line in enumerate(lines):
        event = by_line.get(line)
        if event is None:
            try:
                event = event_of(line.replace(",", " ").split())
            except ValueError as exc:
                raise Refusal(f"{path}:{i + 1}: {exc}") from None
            event = by_line[line] = distinct.setdefault(event, event)
        events.append(event)
    return events


def _plain_event(alphabet: Optional[frozenset[str]]) -> Callable[[list[str]], frozenset[str]]:
    """``read_plain_trace``'s rule for one line, checking each name once."""
    checked: set[str] = set()

    def event_of(tokens: list[str]) -> frozenset[str]:
        for name in tokens:
            if name not in checked:
                if not is_atom_name(name):
                    raise ValueError(f"{name!r} is not an atom name")
                if alphabet is not None and name not in alphabet:
                    raise ValueError(f"atom {name!r} is in no class")
                checked.add(name)
        return frozenset(tokens)
    return event_of


def read_plain_trace(path: str,
                     alphabet: Optional[frozenset[str]] = None) -> list[frozenset[str]]:
    """One event per line; comma or space separated atoms; blank line is an
    empty event.  The first token of a line that is not an atom name, or
    with ``alphabet`` an atom outside it, is refused with its line."""
    return _read_events(path, _read_text(path, "trace").splitlines(), _plain_event(alphabet))


def _signed_event(names: frozenset[str]) -> Callable[[list[str]], frozenset[SLit]]:
    """``read_signed_trace``'s rule for one line."""
    def event_of(tokens: list[str]) -> frozenset[SLit]:
        event = frozenset(parse_slit(tok) for tok in tokens)
        bad = sorted(l.name for l in event if not is_literal_name(l.name))
        if bad:
            raise ValueError(f"{bad[0]!r} is neither an atom name nor a class witness name")
        stray = sorted(l.name for l in event if l.name not in names)
        if stray:
            raise ValueError(f"{stray[0]!r} is neither a singleton atom nor a class witness")
        check_consistent(event)
        return event
    return event_of


def read_signed_trace(path: str, names: frozenset[str]) -> list[frozenset[SLit]]:
    """One event per line of ``name=1`` / ``[group]=0`` tokens.  A bad token,
    a literal whose name is neither an atom name nor a class witness name
    (``is_literal_name``), a literal of a name outside ``names``, or an
    event holding both signs of a name, is refused with its line."""
    return _read_events(path, _read_text(path, "trace").splitlines(), _signed_event(names))


def parse_costs(text: str) -> dict[str, int]:
    """``cs=2,abg=3`` using canonical class ids."""
    costs = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, value = part.partition("=")
        if not eq or not value.removeprefix("-").isdecimal():
            raise Refusal(f"bad --costs entry: {part!r}")
        costs[name.strip()] = int(value)
    return costs


def _classes_arg(args) -> Optional[tuple[EqClass, ...]]:
    """The ``--classes`` over the stripped ``--alphabet`` entries, or
    ``None`` without them; ``parse_classes`` checks the names."""
    if not args.classes:
        return None
    alphabet = [name.strip() for name in args.alphabet.split(",")] if args.alphabet else None
    try:
        return parse_classes(args.classes, alphabet)
    except ValueError as exc:
        raise Refusal(f"classes error: {exc}")


def event_to_json(event: frozenset):
    if any(isinstance(x, SLit) for x in event):
        return sorted(str(lit) for lit in event)
    return sorted(event)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def cmd_synthesize(args) -> int:
    f = parse_formula(args.formula)
    t0 = time.perf_counter()
    classes = _classes_arg(args)
    monitor = synthesize_standard(f) if classes is None else synthesize_imperfect(f, classes)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    payload = machine_to_json(monitor, formula_text=args.formula, classes_text=args.classes)
    # Both texts first, so that a machine too wide to draw leaves no file.
    dot = moore_to_dot(monitor.machine) if args.dot else None
    _write_text(args.out, payload, "output")
    if dot is not None:
        _write_text(args.dot, dot, "dot")
    component_sizes = [len(dfa.states) for dfa in monitor.machine.components]
    print(f"mode: {monitor.mode}")
    print(f"product states: {len(monitor.machine.outputs)} "
          f"(components: {', '.join(map(str, component_sizes))})")
    print(f"synthesis time: {elapsed_ms:.1f} ms")
    print(f"machine written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    merged = {}
    if args.config:
        try:
            config = json.loads(_read_text(args.config, "config"))
        except (ValueError, RecursionError) as exc:  # nesting past the recursion limit
            raise Refusal(f"config error: {args.config}: {exc}")
        if not isinstance(config, dict):
            raise Refusal(f"config error: {args.config}: not a JSON object")
        merged.update(config)
    for key in ("metric", "bound", "window", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if args.costs:
        merged["costs"] = parse_costs(args.costs)
    return merged


def _alphabet_of(classes) -> frozenset[str]:
    return frozenset(a for cls in classes for a in cls.members)


def _stored_classes(text: str) -> Optional[tuple[EqClass, ...]]:
    """The classes a machine file stores, or ``None`` when it stores none.
    Stored classes that do not parse are refused as a machine error."""
    stored = json.loads(text).get("classes")
    if stored is None:
        return None
    if not isinstance(stored, str):
        raise Refusal(f"machine error: stored classes {stored!r} are not a classes text")
    try:
        return parse_classes(stored)
    except ValueError as exc:
        raise Refusal(f"machine error: stored classes: {exc}")


def _read_names(monitor: MonitorInstance) -> set[str]:
    """The literal names a signed machine's components read."""
    return {lit.name for dfa in monitor.machine.components
            for lits in dfa.lits.values() for lit in lits}


def _machine_names(text: str, monitor: MonitorInstance) -> frozenset[str]:
    """The literal names a signed trace may use with a signed machine file:
    those of the classes text the file stores and those its components
    read.  A machine synthesised with ``--alphabet`` reads singleton atoms
    that its classes text does not name."""
    stored = _stored_classes(text)
    return frozenset(_read_names(monitor).union(
        () if stored is None else rendering_map(stored).values()))


def _check_machine_classes(text: str, monitor: MonitorInstance,
                           classes: tuple[EqClass, ...]) -> None:
    """Refuse ``--classes`` that encode events in other literals than a
    signed machine file reads: the witness names of their classes with
    several members must be those of the classes the file stores or, when
    it stores none, include every witness name its components read.
    Singleton classes never conflict."""
    given = set(witness_names(classes))
    stored = _stored_classes(text)
    if stored is None:
        want = {name for name in _read_names(monitor) if name[:1] == "["}
    else:
        want = set(witness_names(stored))
    if not (want <= given if stored is None else want == given):
        raise Refusal(f"classes error: the machine file's class witnesses are {sorted(want)}, "
                      f"but --classes make {sorted(given)}")


def cmd_verify(args) -> int:
    mode = args.mode
    t_synth0 = time.perf_counter()
    formula: Optional[Formula] = None
    monitor: Optional[MonitorInstance] = None
    if args.machine:
        machine_text = _read_text(args.machine, "machine")
        try:
            monitor = machine_from_json(machine_text)
        except ValueError as exc:
            raise Refusal(f"machine error: {exc}")
        if mode not in ("standard", "imperfect"):
            raise Refusal("--machine supports standard and imperfect modes only")
        if monitor.mode != mode:
            raise Refusal(f"machine file is {monitor.mode!r}, requested {mode!r}")
    else:
        if not args.formula:
            raise Refusal("either --machine or --formula is required")
        formula = parse_formula(args.formula)

    cfg = _load_config(args)
    classes = _classes_arg(args)
    if monitor is not None and monitor.machine.signed and classes is not None:
        _check_machine_classes(machine_text, monitor, classes)

    lines = _read_text(args.trace, "trace").splitlines()
    signed_input = "=" in next((line for line in lines if line.strip()), "")
    session: Optional[ActiveSession | ReactiveSession] = None

    if mode in ("active", "reactive"):
        if formula is None:
            raise Refusal("active/reactive modes need --formula")
        if classes is None:
            raise Refusal("active/reactive modes need --classes")
        if signed_input:
            raise Refusal("active/reactive modes consume plain traces")
        if "costs" not in cfg:
            raise Refusal("active/reactive modes need --costs")
        if "bound" not in cfg:
            raise Refusal("active/reactive modes need --bound")
        if mode == "reactive" and cfg.get("window") is None:
            raise Refusal("reactive mode needs --window")
        events: list = _read_events(args.trace, lines, _plain_event(_alphabet_of(classes)))
        if not isinstance(cfg["costs"], dict):
            raise Refusal("config error: costs must map class ids to integers")
        # The spec and the config check their own values; the session's
        # refusals (a formula too wide, an atom in no class) reach main.
        try:
            vspec = VisibilitySpec(classes=classes, costs=cfg["costs"], bound=cfg["bound"])
            rcfg = RationalConfig(metric=cfg.get("metric", "metric2"), bound=cfg["bound"],
                                  window=cfg.get("window"), seed=cfg.get("seed", 0))
        except ValueError as exc:
            raise Refusal(f"config error: {exc}")
        session = (ActiveSession if mode == "active" else ReactiveSession)(formula, vspec, rcfg)
        t_synth1 = time.perf_counter()
        step = session.step
    else:
        if monitor is None:
            if mode == "standard":
                monitor = synthesize_standard(formula)
            elif classes is None:
                raise Refusal("imperfect mode needs --classes")
            else:
                monitor = synthesize_imperfect(formula, classes)
        t_synth1 = time.perf_counter()
        if mode == "standard":
            if signed_input:
                raise Refusal("standard mode consumes plain traces")
            events = _read_events(args.trace, lines, _plain_event(None))
        else:
            if signed_input:
                # Without --classes the monitor is a machine file's.
                names = (_machine_names(machine_text, monitor) if classes is None
                         else frozenset(rendering_map(classes).values()))
                events = _read_events(args.trace, lines, _signed_event(names))
            else:
                if classes is None:
                    raise Refusal("imperfect mode needs --classes to encode a plain trace")
                # Each distinct line is made visible once.
                covered = _alphabet_of(classes)
                plain = _plain_event(covered)
                events = _read_events(args.trace, lines, lambda tokens: visible_event(
                    explicit_trace([plain(tokens)], covered)[0], classes, ()))
        step = monitor.step

    t_run0 = time.perf_counter()
    verdicts = []
    for i, event in enumerate(events):
        try:
            verdicts.append(step(event))
        except ValueError as exc:
            raise Refusal(f"event {i}: {exc}")
    t_run1 = time.perf_counter()

    n_events = len(events)
    report: dict = {
        "final": (monitor if session is None else session).verdict.value,
        "broken_per_window": [],
        "timing": {
            "synthesis_ms": 0.0 if args.omit_timing else round((t_synth1 - t_synth0) * 1000.0, 3),
            "verify_ms": 0.0 if args.omit_timing else round((t_run1 - t_run0) * 1000.0, 3),
            "per_event_ns": 0.0 if args.omit_timing or not n_events
            else round((t_run1 - t_run0) * 1e9 / n_events, 1),
        },
    }
    if session is not None:
        result = session.result()
        events = result.visible_events
        report["broken_per_window"] = [sorted(b) for b in result.broken_per_window]
        report["allocations"] = [{"payoffs": dict(a.payoffs), "broken": sorted(a.selection)}
                                 for a in result.allocations]
    report["steps"] = [{"index": i, "event": event_to_json(event), "verdict": verdict.value}
                       for i, (event, verdict) in enumerate(zip(events, verdicts))]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_text(args.out, text, "output")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# casestudy
# ---------------------------------------------------------------------------

def cmd_casestudy(args) -> int:
    t0 = time.perf_counter()
    cells = casestudy.run_grid(with_oracle=args.oracle)
    elapsed = time.perf_counter() - t0
    if args.json:
        payload = {
            "elapsed_s": round(elapsed, 3),
            "cells": [
                {
                    "row": c.row,
                    "property": c.prop,
                    "verdict": c.verdict.value,
                    "reported": c.expected.value,
                    "matches": c.matches,
                    **({"oracle": c.oracle.value} if c.oracle is not None else {}),
                }
                for c in cells
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(casestudy.render_grid(cells))
        print(f"elapsed: {elapsed:.2f}s")
    unsound = [c for c in cells if c.verdict != c.sound]
    return 1 if unsound and args.strict else 0


# ---------------------------------------------------------------------------
# metrics experiment
# ---------------------------------------------------------------------------

VERDICT_ORDER = list(Verdict)


EXPERIMENT_TRACE_LEN = 8  # events per trace of the metric comparison


def run_metrics_experiment(n_formulas: int, n_traces: int, seed: int,
                           metrics: Sequence[str], size: int) -> dict[str, dict[str, int]]:
    """Verdict counts of seeded active-monitor runs per metric.

    Formulas, traces and visibility draws are shared across metrics so the
    comparison is paired.
    """
    counts = {m: {v.value: 0 for v in VERDICT_ORDER} for m in metrics}
    for metric_name in metrics:
        if metric_name not in METRICS:
            raise Refusal(f"unknown metric {metric_name!r}")
    for i in range(n_formulas):
        rng_f = random.Random(derive_seed(seed, 1, i))
        f = random_formula(rng_f, size)
        vspec = experiment_visibility(random.Random(derive_seed(seed, 2, i)))
        traces = [
            random_plain_trace(random.Random(derive_seed(seed, 3, i, j)), EXPERIMENT_TRACE_LEN)
            for j in range(n_traces)
        ]
        for metric_name in metrics:
            cfg = RationalConfig(metric=metric_name, bound=vspec.bound,
                                 seed=derive_seed(seed, 4, i))
            for trace in traces:
                result = active_monitor(trace, f, vspec, cfg)
                counts[metric_name][result.final.value] += 1
    return counts


def cmd_metrics_experiment(args) -> int:
    for flag, count in (("--formulas", args.formulas), ("--traces", args.traces)):
        if count < 1:
            raise Refusal(f"{flag} must be at least 1, got {count}")
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    counts = run_metrics_experiment(args.formulas, args.traces, args.seed,
                                    metrics, size=args.size)
    total = args.formulas * args.traces
    header = ["metric", "total"] + [v.value for v in VERDICT_ORDER] \
        + [f"{v.value}_pct" for v in VERDICT_ORDER]
    lines = [",".join(header)]
    for m in metrics:
        row = [m, str(total)]
        row += [str(counts[m][v.value]) for v in VERDICT_ORDER]
        row += [f"{100.0 * counts[m][v.value] / total:.2f}" for v in VERDICT_ORDER]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text, "output")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlscope",
        description="LTL runtime verification with partial observability")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="build a monitor and write it to a file")
    p.add_argument("--formula", "-f", required=True)
    p.add_argument("--classes", help="indistinguishability classes, e.g. 'c~s; a~b~g'")
    p.add_argument("--alphabet", help="comma-separated alphabet (defaults to mentioned atoms)")
    p.add_argument("--out", required=True)
    p.add_argument("--dot", help="also write Graphviz DOT")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="run a monitor over a trace file")
    p.add_argument("--machine", help="machine JSON from synthesize")
    p.add_argument("--formula", "-f")
    p.add_argument("--classes")
    p.add_argument("--alphabet")
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", choices=("standard", "imperfect", "active", "reactive"),
                   default="standard")
    p.add_argument("--costs", help="per-class break costs, e.g. cs=2,abg=3")
    p.add_argument("--bound", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--metric", choices=sorted(METRICS))
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON config file: metric, costs, bound, window, seed")
    p.add_argument("--out")
    p.add_argument("--omit-timing", action="store_true",
                   help="zero the timing fields for byte-reproducible reports")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("casestudy", help="reproduce the published verdict grid")
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="arbitrate disputed/differing cells with the independent oracle")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when a cell differs from the published grid, "
                        "or a disputed cell from its recorded sound verdict")
    p.set_defaults(func=cmd_casestudy)

    p = sub.add_parser("metrics-experiment", help="verdict distribution per metric CSV")
    p.add_argument("--formulas", type=int, default=1000)
    p.add_argument("--traces", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=4, help="operators per random formula")
    p.add_argument("--metrics", default=",".join(METRICS))
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit status.  A refused input prints
    one line on stderr and returns 2, like argparse's usage errors;
    ``casestudy --strict`` returns 1 for a cell off its verdict."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Refusal as exc:
        message = str(exc)
    except (ParseError, TooWideError) as exc:
        message = f"formula error: {exc}"
    except UncoveredAtomError as exc:
        message = f"classes error: {exc}"
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
