"""Row legalization (Tetris-style) for global placement results.

Snaps every standard cell onto a row/site grid, avoiding macro blockages and
cell overlaps while minimizing displacement from the global-placement
location.  Runs in-place on a :class:`~repro.placement.placer.Placement`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List

import numpy as np

from repro.netlist import Netlist
from repro.placement.die import ROW_HEIGHT, Die
from repro.placement.placer import Placement
from repro.utils import require

__all__ = [
    "SITE_WIDTH",
    "RowGrid",
    "cell_site_width",
    "cell_span",
    "release_cell_sites",
    "reclaim_sites",
    "legalize",
    "find_site_near",
]

SITE_WIDTH = 1.0


class RowGrid:
    """Occupancy grid of placement sites; macros are pre-blocked."""

    def __init__(self, die: Die) -> None:
        self.n_rows = die.n_rows
        self.n_sites = int(die.width / SITE_WIDTH)
        require(self.n_rows > 0 and self.n_sites > 0, "die too small")
        self.occupied = np.zeros((self.n_rows, self.n_sites), dtype=bool)
        for m in die.macros:
            r0 = max(0, int(m.y0 / ROW_HEIGHT))
            r1 = min(self.n_rows, int(np.ceil(m.y1 / ROW_HEIGHT)))
            s0 = max(0, int(m.x0 / SITE_WIDTH))
            s1 = min(self.n_sites, int(np.ceil(m.x1 / SITE_WIDTH)))
            self.occupied[r0:r1, s0:s1] = True

    @classmethod
    def from_placement(cls, netlist: Netlist,
                       placement: "Placement") -> "RowGrid":
        """Occupancy grid of an already-legalized placement.

        Used by the incremental optimizer so inserted cells claim real free
        sites instead of overlapping existing logic.
        """
        grid = cls(placement.die)
        for cid, (x, y) in placement.cell_xy.items():
            width = cell_site_width(netlist, cid)
            row = int(min(max(y / ROW_HEIGHT, 0), grid.n_rows - 1))
            start = int(min(max(round(x / SITE_WIDTH - width / 2.0), 0),
                            grid.n_sites - width))
            # Tolerate overlap with blockages rather than fail: the grid is
            # advisory for incremental insertion.
            grid.occupied[row, start:start + width] = True
        return grid

    def free_run_near(self, row: int, col: int, width: int) -> int:
        """Leftmost site of the free run of *width* nearest *col*, or -1."""
        occ = self.occupied[row]
        if width > len(occ):
            return -1
        # window_sum[s] = number of occupied sites in occ[s : s + width]
        csum = np.concatenate([[0], np.cumsum(occ)])
        window_sum = csum[width:] - csum[:-width]
        free = np.where(window_sum == 0)[0]
        if len(free) == 0:
            return -1
        target = min(max(col - width // 2, 0), len(occ) - width)
        return int(free[np.argmin(np.abs(free - target))])

    def claim(self, row: int, start: int, width: int) -> None:
        require(not self.occupied[row, start:start + width].any(),
                "claiming occupied sites")
        self.occupied[row, start:start + width] = True


class _IndexedRowGrid(RowGrid):
    """:func:`legalize`'s private grid, with each row's free starts cached.

    ``_free[row][width]`` is the sorted list of starts of free runs of
    *width* in *row*.  Only :func:`legalize` writes to this grid, and only
    through :meth:`claim`, which drops the claimed row's entries, so the
    cache stays exact.  Grids the optimizer shares are also written
    directly (:func:`release_cell_sites`) and stay uncached.
    """

    def __init__(self, die: Die) -> None:
        super().__init__(die)
        self._free: Dict[int, Dict[int, List[int]]] = {}

    def free_run_near(self, row: int, col: int, width: int) -> int:
        n_sites = self.n_sites
        if width > n_sites:
            return -1
        by_width = self._free.setdefault(row, {})
        free = by_width.get(width)
        if free is None:
            csum = np.concatenate([[0], np.cumsum(self.occupied[row])])
            free = np.flatnonzero(csum[width:] - csum[:-width] == 0).tolist()
            by_width[width] = free
        if not free:
            return -1
        target = min(max(col - width // 2, 0), n_sites - width)
        # Nearest start to target; on a tie the left one, as argmin picks.
        k = bisect_left(free, target)
        if k == len(free) or (k > 0 and
                              target - free[k - 1] <= free[k] - target):
            return free[k - 1]
        return free[k]

    def claim(self, row: int, start: int, width: int) -> None:
        super().claim(row, start, width)
        self._free.pop(row, None)


def cell_span(netlist: Netlist, placement: "Placement", grid: RowGrid,
              cid: int) -> tuple:
    """(row, start, width) of a placed cell on the grid."""
    x, y = placement.cell_xy[cid]
    width = cell_site_width(netlist, cid)
    row = int(min(max(y / ROW_HEIGHT, 0), grid.n_rows - 1))
    start = int(min(max(round(x / SITE_WIDTH - width / 2.0), 0),
                    grid.n_sites - width))
    return row, start, width


def release_cell_sites(netlist: Netlist, placement: "Placement",
                       grid: RowGrid, cid: int) -> tuple:
    """Free a cell's sites (before removing/rewriting it in place).

    Returns the released span so the caller can re-claim it on rollback.
    """
    row, start, width = cell_span(netlist, placement, grid, cid)
    grid.occupied[row, start:start + width] = False
    return row, start, width


def reclaim_sites(grid: RowGrid, span: tuple) -> None:
    """Re-occupy a span previously freed by :func:`release_cell_sites`."""
    row, start, width = span
    grid.occupied[row, start:start + width] = True


def cell_site_width(netlist: Netlist, cid: int) -> int:
    """Number of sites a cell occupies (area / row height, ≥ 1)."""
    area = netlist.cell_type(cid).area
    return max(1, int(round(area / ROW_HEIGHT / SITE_WIDTH)))


def legalize(netlist: Netlist, placement: Placement) -> float:
    """Legalize all cells; returns the mean displacement in µm."""
    die = placement.die
    grid = _IndexedRowGrid(die)
    # Large cells first: they are hardest to fit.
    order: List[int] = sorted(
        placement.cell_xy,
        key=lambda cid: (-cell_site_width(netlist, cid),
                         placement.cell_xy[cid][0]))
    total_disp = 0.0
    for cid in order:
        x, y = placement.cell_xy[cid]
        width = cell_site_width(netlist, cid)
        want_row = int(min(max(y / ROW_HEIGHT, 0), grid.n_rows - 1))
        want_col = int(min(max(x / SITE_WIDTH, 0), grid.n_sites - 1))
        best = None  # (cost, row, start)
        for dr in range(grid.n_rows):
            candidates = {want_row - dr, want_row + dr}
            for row in candidates:
                if not 0 <= row < grid.n_rows:
                    continue
                start = grid.free_run_near(row, want_col, width)
                if start < 0:
                    continue
                nx = (start + width / 2.0) * SITE_WIDTH
                ny = (row + 0.5) * ROW_HEIGHT
                cost = abs(nx - x) + abs(ny - y)
                if best is None or cost < best[0]:
                    best = (cost, row, start)
            # Any solution within dr rows beats anything further away in y
            # by at least (dr+1 - dr) row heights only if its x-cost is
            # small; allow a one-row slack before stopping the search.
            if best is not None and best[0] <= (dr - 1) * ROW_HEIGHT:
                break
        require(best is not None, f"no legal site for cell {cid} "
                "(utilization too high?)")
        _, row, start = best
        grid.claim(row, start, width)
        nx = (start + width / 2.0) * SITE_WIDTH
        ny = (row + 0.5) * ROW_HEIGHT
        total_disp += abs(nx - x) + abs(ny - y)
        placement.cell_xy[cid] = (nx, ny)
    return total_disp / max(1, len(order))


def find_site_near(netlist: Netlist, placement: Placement, grid: RowGrid,
                   cid: int, x: float, y: float,
                   max_disp: float = 25.0) -> bool:
    """Place a newly created cell near (x, y) on an existing grid.

    Used by the incremental optimizer when it inserts buffers or decomposed
    gates.  Scans rows outward from the target and keeps the cheapest
    (Manhattan-displacement) free run.  Returns False when nothing exists
    within *max_disp* µm — a placement this far from the work site would
    defeat the optimization, so the caller rejects the move instead.
    """
    width = cell_site_width(netlist, cid)
    want_row = int(min(max(y / ROW_HEIGHT, 0), grid.n_rows - 1))
    want_col = int(min(max(x / SITE_WIDTH, 0), grid.n_sites - 1))
    best = None  # (cost, row, start)
    for dr in range(grid.n_rows):
        if best is not None and best[0] <= (dr - 1) * ROW_HEIGHT:
            break
        if dr * ROW_HEIGHT > max_disp:
            break
        for row in {want_row - dr, want_row + dr}:
            if not 0 <= row < grid.n_rows:
                continue
            start = grid.free_run_near(row, want_col, width)
            if start < 0:
                continue
            nx = (start + width / 2.0) * SITE_WIDTH
            ny = (row + 0.5) * ROW_HEIGHT
            cost = abs(nx - x) + abs(ny - y)
            if best is None or cost < best[0]:
                best = (cost, row, start)
    if best is None or best[0] > max_disp:
        return False
    _, row, start = best
    grid.claim(row, start, width)
    nx = (start + width / 2.0) * SITE_WIDTH
    ny = (row + 0.5) * ROW_HEIGHT
    placement.cell_xy[cid] = (nx, ny)
    return True
