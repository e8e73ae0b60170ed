"""Command-line surface: synthesis, verification, the case-study grid and
the metric-comparison experiment."""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Optional, Sequence

from . import casestudy
from .automata.dot import moore_to_dot
from .automata.moore import Verdict
from .formula import (Atom, Formula, ParseError, SLit, UncoveredAtomError,
                      parse_formula, parse_slit)
from .monitor import (MonitorInstance, machine_from_json, machine_to_json,
                      synthesize_imperfect, synthesize_standard)
from .randgen import (derive_seed, experiment_visibility, random_formula,
                      random_plain_trace)
from .rational import (METRICS, ActiveSession, RationalConfig, ReactiveSession,
                       active_monitor)
from .visibility import (VisibilitySpec, check_consistent, explicit_trace,
                         parse_classes, visible_trace)


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
        raise SystemExit(f"{what} error: {exc}")


def _write_text(path: str, text: str, what: str) -> None:
    """Write a file named on the command line; a file that cannot be
    written exits with one line."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"{what} error: {exc}")


def _is_atom_name(name: str) -> bool:
    """Whether the formula grammar reads ``name`` as one atom."""
    try:
        return parse_formula(name) == Atom(name)
    except ParseError:
        return False


def read_plain_trace(path: str,
                     alphabet: Optional[frozenset[str]] = None) -> list[frozenset[str]]:
    """One event per line; comma or space separated atoms; blank line is an
    empty event.  A token that is not an atom name, or with ``alphabet`` an
    atom outside it, exits with its line."""
    events = []
    checked: set[str] = set()
    for i, line in enumerate(_read_text(path, "trace").splitlines()):
        event = frozenset(line.replace(",", " ").split())
        for name in event - checked:
            if not _is_atom_name(name):
                raise SystemExit(f"{path}:{i + 1}: {name!r} is not an atom name")
            if alphabet is not None and name not in alphabet:
                raise SystemExit(f"{path}:{i + 1}: atom {name!r} is in no class")
            checked.add(name)
        events.append(event)
    return events


def read_signed_trace(path: str) -> list[frozenset[SLit]]:
    """One event per line of ``name=1`` / ``[group]=0`` tokens.  A bad token
    exits with its line; an event holding both signs of a name raises
    ``ValueError`` with its line."""
    events = []
    for i, line in enumerate(_read_text(path, "trace").splitlines()):
        try:
            event = frozenset(parse_slit(tok) for tok in line.replace(",", " ").split())
        except ValueError as exc:
            raise SystemExit(f"{path}:{i + 1}: {exc}")
        try:
            check_consistent(event)
        except ValueError as exc:
            raise ValueError(f"{path}:{i + 1}: {exc}") from None
        events.append(event)
    return events


def trace_is_signed(path: str) -> bool:
    for line in _read_text(path, "trace").splitlines():
        if line.strip():
            return "=" in line
    return False


def parse_costs(text: str) -> dict[str, int]:
    """``cs=2,abg=3`` using canonical class ids."""
    costs = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, value = part.partition("=")
        if not eq or not value.lstrip("-").isdigit():
            raise SystemExit(f"bad --costs entry: {part!r}")
        costs[name.strip()] = int(value)
    return costs


def event_to_json(event: frozenset):
    if any(isinstance(x, SLit) for x in event):
        return sorted(str(lit) for lit in event)
    return sorted(event)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def cmd_synthesize(args) -> int:
    try:
        f = parse_formula(args.formula)
    except ParseError as exc:
        raise SystemExit(f"formula error: {exc}")
    t0 = time.perf_counter()
    if args.classes:
        try:
            classes = parse_classes(args.classes, args.alphabet.split(",") if args.alphabet else None)
        except ValueError as exc:
            raise SystemExit(f"classes error: {exc}")
        try:
            monitor = synthesize_imperfect(f, classes, minimized=not args.no_minimize)
        except UncoveredAtomError as exc:
            raise SystemExit(f"classes error: {exc}")
    else:
        monitor = synthesize_standard(f, minimized=not args.no_minimize)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    payload = machine_to_json(monitor, formula_text=args.formula, classes_text=args.classes)
    _write_text(args.out, payload, "output")
    if args.dot:
        _write_text(args.dot, moore_to_dot(monitor.machine), "dot")
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
        except ValueError as exc:
            raise SystemExit(f"config error: {args.config}: {exc}")
        if not isinstance(config, dict):
            raise SystemExit(f"config error: {args.config}: not a JSON object")
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


def cmd_verify(args) -> int:
    mode = args.mode
    t_synth0 = time.perf_counter()
    formula: Optional[Formula] = None
    monitor: Optional[MonitorInstance] = None
    classes = None
    if args.machine:
        try:
            monitor = machine_from_json(_read_text(args.machine, "machine"))
        except ValueError as exc:
            raise SystemExit(f"machine error: {exc}")
        if mode not in ("standard", "imperfect"):
            raise SystemExit("--machine supports standard and imperfect modes only")
        if monitor.mode != mode:
            raise SystemExit(f"machine file is {monitor.mode!r}, requested {mode!r}")
    else:
        if not args.formula:
            raise SystemExit("either --machine or --formula is required")
        try:
            formula = parse_formula(args.formula)
        except ParseError as exc:
            raise SystemExit(f"formula error: {exc}")

    cfg = _load_config(args)
    alphabet = args.alphabet.split(",") if args.alphabet else None
    if args.classes:
        try:
            classes = parse_classes(args.classes, alphabet)
        except ValueError as exc:
            raise SystemExit(f"classes error: {exc}")

    signed_input = trace_is_signed(args.trace)
    steps: list[dict] = []
    broken_per_window: list[list[str]] = []

    if mode in ("active", "reactive"):
        if formula is None:
            raise SystemExit("active/reactive modes need --formula")
        if classes is None:
            raise SystemExit("active/reactive modes need --classes")
        if signed_input:
            raise SystemExit("active/reactive modes consume plain traces")
        if "costs" not in cfg:
            raise SystemExit("active/reactive modes need --costs")
        if "bound" not in cfg:
            raise SystemExit("active/reactive modes need --bound")
        if mode == "reactive" and "window" not in cfg:
            raise SystemExit("reactive mode needs --window")
        trace = read_plain_trace(args.trace, _alphabet_of(classes))
        if not isinstance(cfg["costs"], dict):
            raise SystemExit("config error: costs must map class ids to integers")
        try:
            bound = int(cfg["bound"])
            vspec = VisibilitySpec(
                alphabet=_alphabet_of(classes),
                classes=classes,
                costs={k: int(v) for k, v in cfg["costs"].items()},
                bound=bound,
            )
            rcfg = RationalConfig(metric=cfg.get("metric", "metric2"), bound=bound,
                                  window=int(cfg["window"]) if "window" in cfg else None,
                                  seed=int(cfg.get("seed", 0)))
            session = (ActiveSession if mode == "active" else ReactiveSession)(
                formula, vspec, rcfg)
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"config error: {exc}")
        t_synth1 = time.perf_counter()
        t_run0 = time.perf_counter()
        for event in trace:
            session.step(event)
        result = session.result()
        t_run1 = time.perf_counter()
        final = result.final
        for i, (event, verdict) in enumerate(zip(result.visible_events, result.step_verdicts)):
            steps.append({"index": i, "event": event_to_json(event),
                          "verdict": verdict.value})
        broken_per_window = [sorted(b) for b in result.broken_per_window]
        allocations = [{"payoffs": dict(a.payoffs), "broken": sorted(a.selection)}
                       for a in result.allocations]
        n_events = len(trace)
    else:
        if monitor is None:
            if mode == "standard":
                monitor = synthesize_standard(formula)
            else:
                if classes is None:
                    raise SystemExit("imperfect mode needs --classes")
                try:
                    monitor = synthesize_imperfect(formula, classes)
                except UncoveredAtomError as exc:
                    raise SystemExit(f"classes error: {exc}")
        t_synth1 = time.perf_counter()
        if mode == "standard":
            if signed_input:
                raise SystemExit("standard mode consumes plain traces")
            events: list = read_plain_trace(args.trace)
        else:
            if signed_input:
                try:
                    events = read_signed_trace(args.trace)
                except ValueError as exc:
                    raise SystemExit(str(exc))
            else:
                if classes is None:
                    raise SystemExit("imperfect mode needs --classes to encode a plain trace")
                covered = _alphabet_of(classes)
                sigma_e = explicit_trace(read_plain_trace(args.trace, covered), covered)
                events = visible_trace(sigma_e, classes, ())
        t_run0 = time.perf_counter()
        for i, event in enumerate(events):
            try:
                verdict = monitor.step(event)
            except ValueError as exc:
                raise SystemExit(f"event {i}: {exc}")
            steps.append({"index": i, "event": event_to_json(event),
                          "verdict": verdict.value})
        t_run1 = time.perf_counter()
        final = monitor.verdict
        n_events = len(events)

    timing = {
        "synthesis_ms": 0.0 if args.omit_timing else round((t_synth1 - t_synth0) * 1000.0, 3),
        "verify_ms": 0.0 if args.omit_timing else round((t_run1 - t_run0) * 1000.0, 3),
        "per_event_ns": 0.0 if args.omit_timing or not n_events
        else round((t_run1 - t_run0) * 1e9 / n_events, 1),
    }
    report = {
        "final": final.value,
        "steps": steps,
        "broken_per_window": broken_per_window,
        "timing": timing,
    }
    if mode in ("active", "reactive"):
        report["allocations"] = allocations
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
        sys.stdout.write(casestudy.render_grid(cells, with_oracle=args.oracle))
        print(f"elapsed: {elapsed:.2f}s")
    unsound = [c for c in cells if c.verdict != c.sound]
    return 1 if unsound and args.strict else 0


# ---------------------------------------------------------------------------
# metrics experiment
# ---------------------------------------------------------------------------

VERDICT_ORDER = [Verdict.TRUE, Verdict.FALSE, Verdict.UU, Verdict.UNKNOWN,
                 Verdict.UNKNOWN_NOT_FALSE, Verdict.UNKNOWN_NOT_TRUE]


def run_metrics_experiment(n_formulas: int, n_traces: int, seed: int,
                           metrics: Sequence[str], size: int = 4,
                           trace_len: int = 8) -> dict[str, dict[str, int]]:
    """Verdict counts of seeded active-monitor runs per metric.

    Formulas, traces and visibility draws are shared across metrics so the
    comparison is paired.
    """
    counts = {m: {v.value: 0 for v in VERDICT_ORDER} for m in metrics}
    for metric_name in metrics:
        if metric_name not in METRICS:
            raise SystemExit(f"unknown metric {metric_name!r}")
    for i in range(n_formulas):
        rng_f = random.Random(derive_seed(seed, 1, i))
        f = random_formula(rng_f, size)
        vspec = experiment_visibility(random.Random(derive_seed(seed, 2, i)))
        traces = [
            random_plain_trace(random.Random(derive_seed(seed, 3, i, j)), trace_len)
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
    p.add_argument("--no-minimize", action="store_true")
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
    p.add_argument("--metrics", default="metric0,metric1,metric2,metric3")
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
