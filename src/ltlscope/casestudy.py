"""Remote-inspection fixtures: the rover alphabet, its seven properties, its
global trace, and the five monitor configurations of the verdict grid.

The radiation atoms are named ``a``, ``b``, ``g``; the barrel/camera atoms
``b1 b2 b3 c s mb w``.  Two indistinguishability classes exist: ``cs``
(cut vs rust stain) and ``abg`` (radiation kinds), priced 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata.moore import Verdict
from .formula import Formula, parse_formula
from .monitor import synthesize_imperfect, synthesize_standard
from .oracle.verdict import OracleVerdict, oracle_verdict
from .rational import RationalConfig, RationalRun, active_monitor, reactive_monitor
from .visibility import (VisibilitySpec, explicit_trace, identity_classes,
                         parse_classes, standard_view, visible_trace,
                         expand_witnesses)

ALPHABET = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
CLASSES_TEXT = "c~s; a~b~g"
COSTS = {"cs": 2, "abg": 3}
BOUND = 3
WINDOW = 2

PROPERTIES: tuple[tuple[str, str], ...] = (
    ("phi1", "F (c & X w)"),
    ("phi2", "F (g & (b1 | b2 | b3) & X mb)"),
    ("phi3", "F ((!c & b1 & X b2) | (!c & b2 & X b3))"),
    ("psi1", "G ((b1 | b2 | b3) -> X !c)"),
    ("psi2", "G (g -> !(b1 | b2 | b3))"),
    ("psi3", "G (!g -> !mb)"),
    ("psi1|psi2", "(G ((b1 | b2 | b3) -> X !c)) | (G (g -> !(b1 | b2 | b3)))"),
)

GLOBAL_TRACE: tuple[frozenset[str], ...] = (
    frozenset(),
    frozenset({"g", "b1", "c"}),
    frozenset({"g", "c", "mb", "b2"}),
    frozenset({"c"}),
    frozenset({"w"}),
)

ROWS = ("standard", "imperfect", "active1", "active2", "reactive")

# The grid reported by the original study, kept exactly as published.  Six of
# its cells are disputed (see DISPUTED_CELLS below).
V = Verdict
EXPECTED_GRID: dict[str, tuple[Verdict, ...]] = {
    "standard": (V.UNKNOWN, V.UNKNOWN, V.TRUE, V.UNKNOWN, V.UNKNOWN, V.FALSE, V.UNKNOWN),
    "imperfect": (V.UNKNOWN_NOT_FALSE, V.UNKNOWN_NOT_FALSE, V.UNKNOWN_NOT_FALSE,
                  V.UNKNOWN_NOT_TRUE, V.UNKNOWN_NOT_TRUE, V.UNKNOWN_NOT_TRUE,
                  V.UNKNOWN_NOT_TRUE),
    "active1": (V.TRUE, V.UNKNOWN_NOT_FALSE, V.UNKNOWN, V.FALSE,
                V.UNKNOWN_NOT_TRUE, V.UNKNOWN_NOT_TRUE, V.UNKNOWN_NOT_TRUE),
    "active2": (V.TRUE, V.UNKNOWN_NOT_FALSE, V.UNKNOWN, V.UNKNOWN_NOT_TRUE,
                V.FALSE, V.UNKNOWN_NOT_TRUE, V.UNKNOWN_NOT_TRUE),
    "reactive": (V.TRUE, V.UNKNOWN_NOT_FALSE, V.UNKNOWN, V.FALSE, V.FALSE,
                 V.UNKNOWN_NOT_TRUE, V.FALSE),
}

FLAGGED_CELL = ("active2", "phi1")

# Published cells no sound six-valued monitor can give on these visible
# traces, each mapped to the sound verdict and the reason.  The closure
# oracle (``ltlscope casestudy --oracle``) gives the sound verdict on all six.
DISPUTED_CELLS: dict[tuple[str, str], tuple[Verdict, str]] = {
    FLAGGED_CELL: (V.UNKNOWN_NOT_FALSE,
                   "c~s stays unbroken, so the c of c & X w is never seen"),
    ("active2", "phi2"): (V.TRUE,
                          "with abg broken every atom is visible; the standard "
                          "monitor on GLOBAL_TRACE gives TRUE"),
    ("reactive", "phi2"): (V.TRUE,
                           "abg is broken in every window (payoffs abg 0.7, "
                           "cs 0.0), so as active2/phi2"),
    ("active2", "phi3"): (V.UNKNOWN_NOT_FALSE,
                          "phi3 mentions no member of abg, so breaking it "
                          "keeps the imperfect/phi3 verdict"),
    ("active2", "psi3"): (V.UNKNOWN,
                          "with abg broken every atom is visible; the standard "
                          "monitor on GLOBAL_TRACE gives UNKNOWN"),
    ("reactive", "psi3"): (V.UNKNOWN,
                           "abg is broken in every window (payoffs abg 0.35, "
                           "cs 0.0), so as active2/psi3"),
}


def spec() -> VisibilitySpec:
    return VisibilitySpec(
        classes=parse_classes(CLASSES_TEXT, ALPHABET),
        costs=dict(COSTS),
        bound=BOUND,
    )


def formulas() -> dict[str, Formula]:
    return {name: parse_formula(text) for name, text in PROPERTIES}


@dataclass
class GridCell:
    row: str
    prop: str
    verdict: Verdict
    expected: Verdict
    oracle: Optional[OracleVerdict] = None
    run: Optional[RationalRun] = None  # the rational rows' run

    @property
    def matches(self) -> bool:
        return self.verdict == self.expected

    @property
    def sound(self) -> Verdict:
        """The published verdict, or the recorded sound one for a disputed cell."""
        dispute = DISPUTED_CELLS.get((self.row, self.prop))
        return self.expected if dispute is None else dispute[0]


def run_grid(with_oracle: bool) -> list[GridCell]:
    """Evaluate every property under the five configurations.

    When ``with_oracle`` is set, every rational-monitor cell that disagrees
    with the reported grid gets an oracle arbitration column; the disputed
    cells always do.
    """
    vspec = spec()
    cfg = RationalConfig(metric="metric2", bound=BOUND, window=WINDOW, seed=0)
    cells: list[GridCell] = []

    plain_view = standard_view(GLOBAL_TRACE, vspec.classes)
    sigma_e = explicit_trace(GLOBAL_TRACE, vspec.alphabet)
    visible_unbroken = visible_trace(sigma_e, vspec.classes, ())

    for i, (name, text) in enumerate(PROPERTIES):
        f = parse_formula(text)

        std = synthesize_standard(f)
        std.run(plain_view)
        cells.append(GridCell("standard", name, std.verdict, EXPECTED_GRID["standard"][i]))

        imp = synthesize_imperfect(f, vspec.classes)
        imp.run(visible_unbroken)
        cells.append(GridCell("imperfect", name, imp.verdict, EXPECTED_GRID["imperfect"][i]))

        for row, run in (
                ("active1", active_monitor(GLOBAL_TRACE, f, vspec, cfg, forced_break=("cs",))),
                ("active2", active_monitor(GLOBAL_TRACE, f, vspec, cfg, forced_break=("abg",))),
                ("reactive", reactive_monitor(GLOBAL_TRACE, f, vspec, cfg))):
            cells.append(GridCell(row, name, run.final, EXPECTED_GRID[row][i], run=run))

    if with_oracle:
        for cell in cells:
            disputed = (cell.row, cell.prop) in DISPUTED_CELLS
            if cell.run is not None and (disputed or not cell.matches):
                cell.oracle = _arbitrate(cell, vspec)
    return cells


def _arbitrate(cell: GridCell, vspec: VisibilitySpec) -> OracleVerdict:
    """Oracle verdict for a rational-monitor cell, over the identity-class
    machine semantics: witness knowledge decoded into member literals."""
    formula = parse_formula(dict(PROPERTIES)[cell.prop])
    decoded = [expand_witnesses(ev, vspec.classes) for ev in cell.run.visible_events]
    return oracle_verdict(formula, identity_classes(vspec.alphabet), decoded,
                          bound=0, allow_large=True)


def render_grid(cells: list[GridCell]) -> str:
    props = [name for name, _ in PROPERTIES]
    width = max(len(p) for p in props) + 2
    lines = []
    header = "row".ljust(12) + "".join(p.ljust(width) for p in props)
    lines.append(header)
    for row in ROWS:
        row_cells = [c for c in cells if c.row == row]
        line = row.ljust(12)
        for prop in props:
            cell = next(c for c in row_cells if c.prop == prop)
            mark = "" if cell.matches else "*"
            line += (cell.verdict.symbol + mark).ljust(width)
        lines.append(line)
    mismatches = [c for c in cells if not c.matches]
    if mismatches:
        lines.append("")
        lines.append("* cells differing from the reported grid:")
        for c in mismatches:
            note = f"  {c.row}/{c.prop}: computed {c.verdict.symbol}, reported {c.expected.symbol}"
            if c.oracle is not None:
                note += f", oracle {Verdict[c.oracle.value].symbol}"
            if (c.row, c.prop) == FLAGGED_CELL:
                note += "  [flagged cell: oracle is authoritative]"
            elif c.verdict == c.sound:
                note += f"  [disputed: {DISPUTED_CELLS[c.row, c.prop][1]}]"
            lines.append(note)
    flagged = next(c for c in cells if (c.row, c.prop) == FLAGGED_CELL)
    if flagged.matches and flagged.oracle is not None:  # a grid run with the oracle
        lines.append("")
        lines.append(f"flagged cell {FLAGGED_CELL[0]}/{FLAGGED_CELL[1]}: "
                     f"oracle {Verdict[flagged.oracle.value].symbol}")
    return "\n".join(lines) + "\n"
