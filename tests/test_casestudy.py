"""The five-configuration verdict grid and its oracle arbitration."""

import pytest

from ltlscope.automata import Verdict
from ltlscope.casestudy import (DISPUTED_CELLS, EXPECTED_GRID, FLAGGED_CELL,
                                PROPERTIES, ROWS, render_grid, run_grid)
from ltlscope.oracle.verdict import OracleVerdict


@pytest.fixture(scope="module")
def grid():
    return run_grid(with_oracle=True)


class TestGrid:
    def test_shape(self, grid):
        assert len(grid) == len(ROWS) * len(PROPERTIES)

    @pytest.mark.parametrize("row", ["standard", "imperfect", "active1"])
    def test_undisputed_rows_match(self, grid, row):
        for cell in grid:
            if cell.row == row:
                assert cell.matches, f"{cell.row}/{cell.prop}"

    def test_remaining_matches(self, grid):
        for cell in grid:
            key = (cell.row, cell.prop)
            if key in DISPUTED_CELLS:
                continue
            assert cell.matches, key

    def test_flagged_cell_reported_not_silently_matched(self, grid):
        cell = next(c for c in grid if (c.row, c.prop) == FLAGGED_CELL)
        assert cell.expected == Verdict.TRUE  # as published
        assert cell.verdict == Verdict.UNKNOWN_NOT_FALSE
        assert cell.oracle == OracleVerdict.UNKNOWN_NOT_FALSE
        assert not cell.matches  # the discrepancy is surfaced

    def test_disputed_cells_are_oracle_backed(self, grid):
        for cell in grid:
            if (cell.row, cell.prop) in DISPUTED_CELLS:
                assert not cell.matches
                assert cell.oracle is not None
                assert cell.oracle.value == cell.verdict.value

    def test_render_mentions_mismatches(self, grid):
        text = render_grid(grid)
        assert "flagged cell" in text
        assert "oracle" in text


class TestExpectations:
    def test_reported_grid_is_complete(self):
        for row in ROWS:
            assert len(EXPECTED_GRID[row]) == len(PROPERTIES)
