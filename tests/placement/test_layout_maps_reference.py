"""Reference battery: the vectorized rasterizer and the legalizer against
frozen copies of the scalar code they replaced.

``compute_layout_maps`` feeds the dataset, the optimizer's layout gate
and (through the region helpers) what-if serving, and its floating-point
sums decide bytes that golden files and caches pin.  The staged flow
differential battery calls the live rasterizer on both sides, so it
cannot see a drift here.  This module can: it keeps verbatim copies of
the per-entity loop rasterizer and of ``legalize`` as they stood before
vectorization, and asserts byte equality on every paper preset and on
adversarial geometry.  Do not "modernize" the frozen copies — their
whole value is that they do not change.
"""

from __future__ import annotations

import tracemalloc
from typing import List

import numpy as np
import pytest

from repro.netlist import DESIGN_PRESETS, IN, OUT, Netlist, generate_netlist
from repro.placement import (
    Placement,
    build_die,
    compute_layout_maps,
    legalize,
    place,
    recompute_density_region,
    recompute_rudy_region,
)
from repro.placement.die import ROW_HEIGHT, Die, Rect
from repro.utils import require

PAPER_DESIGNS = tuple(n for n, s in DESIGN_PRESETS.items()
                      if s.split != "bench")


# ----------------------------------------------------------------------
# Frozen reference: the scalar rasterizer, verbatim.
# ----------------------------------------------------------------------
def _ref_axis_overlap(lo: float, hi: float, n_bins: int,
                      bin_size: float) -> tuple:
    """Clipped per-bin overlap lengths of the interval [lo, hi]."""
    lo = max(0.0, lo)
    hi = max(lo, hi)
    b0 = int(np.clip(lo / bin_size, 0, n_bins - 1))
    b1 = int(np.clip(np.ceil(hi / bin_size) - 1, b0, n_bins - 1))
    edges = np.arange(b0, b1 + 2) * bin_size
    overlaps = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
    return b0, np.clip(overlaps, 0.0, None)


def _ref_compute_layout_maps(netlist: Netlist, placement: Placement,
                             m: int = 64, n: int = 64) -> tuple:
    """Compute the three feature maps for a placed netlist."""
    require(m > 0 and n > 0, "bin counts must be positive")
    die = placement.die
    bin_w = die.width / m
    bin_h = die.height / n
    bin_area = bin_w * bin_h

    density = np.zeros((m, n))
    for cid, (x, y) in placement.cell_xy.items():
        area = netlist.cell_type(cid).area
        half_w = 0.5 * max(area / 1.0, 1.0)  # width at row height 1 µm
        i0, wx = _ref_axis_overlap(x - half_w, x + half_w, m, bin_w)
        j0, wy = _ref_axis_overlap(y - 0.5, y + 0.5, n, bin_h)
        patch = np.outer(wx, wy)
        total = patch.sum()
        if total > 0:
            density[i0:i0 + len(wx), j0:j0 + len(wy)] += area * patch / total
    density /= bin_area

    rudy = np.zeros((m, n))
    eps = 1e-6
    for nid, net in netlist.nets.items():
        pts = placement.pin_positions(netlist, [net.driver] + list(net.sinks))
        x0, y0 = pts.min(axis=0)
        x1, y1 = pts.max(axis=0)
        w = max(x1 - x0, eps)
        h = max(y1 - y0, eps)
        wire_density = (w + h) / (w * h)
        i0, wx = _ref_axis_overlap(x0, x1, m, bin_w)
        j0, wy = _ref_axis_overlap(y0, y1, n, bin_h)
        patch = np.outer(wx, wy) / bin_area  # overlap area fraction
        rudy[i0:i0 + len(wx), j0:j0 + len(wy)] += wire_density * patch

    macro = np.zeros((m, n))
    for rect in die.macros:
        i0, wx = _ref_axis_overlap(rect.x0, rect.x1, m, bin_w)
        j0, wy = _ref_axis_overlap(rect.y0, rect.y1, n, bin_h)
        macro[i0:i0 + len(wx), j0:j0 + len(wy)] += np.outer(wx, wy) / bin_area
    macro = np.clip(macro, 0.0, 1.0)

    return density, rudy, macro, bin_w, bin_h


# ----------------------------------------------------------------------
# Frozen reference: the legalizer and its row grid, verbatim.
# ----------------------------------------------------------------------
_SITE_WIDTH = 1.0


class _RefRowGrid:
    """Occupancy grid of placement sites; macros are pre-blocked."""

    def __init__(self, die: Die) -> None:
        self.n_rows = die.n_rows
        self.n_sites = int(die.width / _SITE_WIDTH)
        require(self.n_rows > 0 and self.n_sites > 0, "die too small")
        self.occupied = np.zeros((self.n_rows, self.n_sites), dtype=bool)
        for m in die.macros:
            r0 = max(0, int(m.y0 / ROW_HEIGHT))
            r1 = min(self.n_rows, int(np.ceil(m.y1 / ROW_HEIGHT)))
            s0 = max(0, int(m.x0 / _SITE_WIDTH))
            s1 = min(self.n_sites, int(np.ceil(m.x1 / _SITE_WIDTH)))
            self.occupied[r0:r1, s0:s1] = True

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
        target = np.clip(col - width // 2, 0, len(occ) - width)
        return int(free[np.argmin(np.abs(free - target))])

    def claim(self, row: int, start: int, width: int) -> None:
        require(not self.occupied[row, start:start + width].any(),
                "claiming occupied sites")
        self.occupied[row, start:start + width] = True


def _ref_cell_site_width(netlist: Netlist, cid: int) -> int:
    """Number of sites a cell occupies (area / row height, ≥ 1)."""
    area = netlist.cell_type(cid).area
    return max(1, int(round(area / ROW_HEIGHT / _SITE_WIDTH)))


def _ref_legalize(netlist: Netlist, placement: Placement) -> float:
    """Legalize all cells; returns the mean displacement in µm."""
    die = placement.die
    grid = _RefRowGrid(die)
    # Large cells first: they are hardest to fit.
    order: List[int] = sorted(
        placement.cell_xy,
        key=lambda cid: (-_ref_cell_site_width(netlist, cid),
                         placement.cell_xy[cid][0]))
    total_disp = 0.0
    for cid in order:
        x, y = placement.cell_xy[cid]
        width = _ref_cell_site_width(netlist, cid)
        want_row = int(np.clip(y / ROW_HEIGHT, 0, grid.n_rows - 1))
        want_col = int(np.clip(x / _SITE_WIDTH, 0, grid.n_sites - 1))
        best = None  # (cost, row, start)
        for dr in range(grid.n_rows):
            candidates = {want_row - dr, want_row + dr}
            for row in candidates:
                if not 0 <= row < grid.n_rows:
                    continue
                start = grid.free_run_near(row, want_col, width)
                if start < 0:
                    continue
                nx = (start + width / 2.0) * _SITE_WIDTH
                ny = (row + 0.5) * ROW_HEIGHT
                cost = abs(nx - x) + abs(ny - y)
                if best is None or cost < best[0]:
                    best = (cost, row, start)
            if best is not None and best[0] <= (dr - 1) * ROW_HEIGHT:
                break
        require(best is not None, f"no legal site for cell {cid} "
                "(utilization too high?)")
        _, row, start = best
        grid.claim(row, start, width)
        nx = (start + width / 2.0) * _SITE_WIDTH
        ny = (row + 0.5) * ROW_HEIGHT
        total_disp += abs(nx - x) + abs(ny - y)
        placement.cell_xy[cid] = (nx, ny)
    return total_disp / max(1, len(order))


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _assert_maps_equal(netlist: Netlist, placement: Placement,
                       m: int, n: int) -> None:
    """All three maps of the live rasterizer equal the frozen one's
    byte for byte (same dtype, shape and memory layout)."""
    ref = _ref_compute_layout_maps(netlist, placement, m, n)
    live = compute_layout_maps(netlist, placement, m, n)
    for label, want, got in zip(("density", "rudy", "macro"), ref[:3],
                                (live.cell_density, live.rudy, live.macro)):
        assert got.dtype == want.dtype and got.shape == want.shape, label
        assert got.flags.c_contiguous, label
        assert got.tobytes() == want.tobytes(), (
            f"{label} differs at {m}x{n}: max |diff| "
            f"{np.nanmax(np.abs(got - want))}")
    assert (live.bin_w, live.bin_h) == ref[3:]


def _copy(placement: Placement) -> Placement:
    return Placement(die=placement.die, cell_xy=dict(placement.cell_xy))


# ----------------------------------------------------------------------
# Paper presets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scale", [0.07, 0.25])
@pytest.mark.parametrize("name", PAPER_DESIGNS)
def test_preset_matches_reference(name, scale):
    spec = DESIGN_PRESETS[name].scaled(scale)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    global_pl = place(nl, die)

    want, got = _copy(global_pl), _copy(global_pl)
    want_disp = _ref_legalize(nl, want)
    got_disp = legalize(nl, got)
    assert got_disp == want_disp
    assert list(got.cell_xy.items()) == list(want.cell_xy.items())

    for bins in (16, 64):
        _assert_maps_equal(nl, global_pl, bins, bins)
        _assert_maps_equal(nl, got, bins, bins)


# ----------------------------------------------------------------------
# Adversarial geometry
# ----------------------------------------------------------------------
_SMALL_TYPES = ("INV_X1", "NAND2_X1", "AND2_X4", "OR3_X2", "MUX2_X8",
                "XOR2_X8", "BUF_X2")


def _adversarial_design(seed: int = 0) -> tuple:
    """A 16 × 10 µm die with every awkward case the rasterizer handles.

    Cells hang off each die edge or lie wholly outside it, footprints end
    exactly on bin edges (1 µm bins at 16 × 10), cells coincide; nets
    have a single pin, coincident pins, zero width or zero height, or span
    the die between port pads; macros overlap each other and the die
    edge.  A seeded cloud of random cells and nets, spilling past the die
    on every side, fills in the rest.
    """
    rng = np.random.default_rng(seed)
    die = Die(width=16.0, height=10.0,
              macros=[Rect(0.0, 0.0, 5.0, 4.0), Rect(3.0, 2.0, 8.0, 6.0),
                      Rect(12.0, 7.0, 18.0, 12.0)])
    nl = Netlist("adversarial")
    pl = Placement(die=die)

    def cell(type_name: str, x: float, y: float) -> int:
        cid = nl.add_cell(type_name).cid
        pl.cell_xy[cid] = (x, y)
        return cid

    fixed = [
        ("INV_X1", -0.3, 5.0), ("INV_X1", 16.2, 5.0),    # off left / right
        ("INV_X1", 8.0, -0.2), ("INV_X1", 8.0, 10.4),    # off bottom / top
        ("INV_X1", -5.0, -5.0), ("INV_X1", 30.0, 30.0),  # wholly outside
        ("INV_X1", 3.5, 0.5),                            # on bin edges
        ("NAND2_X8", 8.0, 5.5), ("MUX2_X8", 0.0, 0.0),   # wide, corner
        ("AND2_X1", 6.25, 6.25), ("AND2_X1", 6.25, 6.25),  # coincident
        ("OR2_X1", 11.0, 2.0), ("OR2_X1", 11.0, 8.0),    # one column
        ("OR2_X1", 2.0, 9.0), ("OR2_X1", 14.0, 9.0),     # one row
    ]
    ids = [cell(t, x, y) for t, x, y in fixed]
    for _ in range(200):
        cell(str(rng.choice(_SMALL_TYPES)), float(rng.uniform(-2.0, 18.0)),
             float(rng.uniform(-2.0, 12.0)))

    free_sinks = {cid: list(nl.cells[cid].input_pins) for cid in nl.cells}

    def net(driver_pin: int, sink_cells) -> None:
        nid = nl.create_net(driver_pin).nid
        for cid in sink_cells:
            if free_sinks[cid]:
                nl.connect(nid, free_sinks[cid].pop())

    out = {cid: nl.cells[cid].output_pin for cid in nl.cells}
    net(out[ids[0]], [])                   # single pin
    net(out[ids[9]], [ids[10]])            # coincident pins
    net(out[ids[11]], [ids[12]])           # zero width
    net(out[ids[13]], [ids[14]])           # zero height
    net(out[ids[1]], [ids[2], ids[3]])     # off-die pins
    for corner, (x, y) in enumerate([(0.0, 0.0), (16.0, 10.0)]):
        port = nl.add_port(f"p{corner}", IN)
        die.port_positions[port.pin] = (x, y)
        net(port.pin, [ids[4], ids[5]] if corner else [ids[7], ids[8]])
    po = nl.add_port("po", OUT)
    die.port_positions[po.pin] = (16.0, 0.0)
    nl.connect(nl.create_net(out[ids[6]]).nid, po.pin)
    drivers = [cid for cid in nl.cells if cid not in ids]
    for cid in drivers[:150]:
        sinks = rng.choice(len(ids) + 200, size=int(rng.integers(1, 4)),
                           replace=False)
        net(out[cid], [int(s) for s in sinks])
    return nl, pl


@pytest.mark.parametrize("m,n", [(16, 10), (16, 16), (12, 20), (7, 3),
                                 (1, 1), (64, 64)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adversarial_matches_reference(seed, m, n):
    nl, pl = _adversarial_design(seed)
    _assert_maps_equal(nl, pl, m, n)


def test_adversarial_cases_are_exercised():
    """The fixed cases of the adversarial design do what they claim."""
    nl, pl = _adversarial_design(0)
    maps = compute_layout_maps(nl, pl, 16, 10)
    nets = list(nl.nets.values())
    assert not nets[0].sinks                                  # single pin
    assert pl.cell_xy[10] == pl.cell_xy[9]                    # coincident
    # Overlapping macros sum past 1 before the clip.
    assert maps.macro[3, 2] == 1.0 and maps.macro.max() == 1.0
    # The wholly-outside cells add nothing: density still conserves the
    # area of everything that overlaps the die.
    assert np.isfinite(maps.cell_density).all()
    assert np.isfinite(maps.rudy).all()


def test_empty_design_gives_zero_maps():
    nl = Netlist("empty")
    pl = Placement(die=Die(width=8.0, height=8.0))
    maps = compute_layout_maps(nl, pl, 4, 4)
    for arr in (maps.cell_density, maps.rudy, maps.macro):
        assert arr.shape == (4, 4) and not arr.any()
    _assert_maps_equal(nl, pl, 4, 4)


# ----------------------------------------------------------------------
# Region helpers (what-if serving) against the new full pass
# ----------------------------------------------------------------------
def _region_design(case: str) -> tuple:
    if case == "adversarial":
        return (*_adversarial_design(3), 12, 20)
    spec = DESIGN_PRESETS[case].scaled(0.25)
    nl = generate_netlist(spec)
    pl = place(nl, build_die(nl, spec))
    legalize(nl, pl)
    return nl, pl, 32, 32


@pytest.mark.parametrize("case", ["arm9", "adversarial"])
def test_region_recompute_equals_full_pass(case):
    nl, pl, m, n = _region_design(case)
    full = compute_layout_maps(nl, pl, m, n)
    rng = np.random.default_rng(11)
    for _ in range(25):
        r0, r1 = sorted(int(v) for v in rng.integers(0, m, size=2))
        c0, c1 = sorted(int(v) for v in rng.integers(0, n, size=2))
        for recompute, want in ((recompute_density_region,
                                 full.cell_density),
                                (recompute_rudy_region, full.rudy)):
            got = want.copy()
            got[r0:r1 + 1, c0:c1 + 1] = np.nan
            recompute(nl, pl, got, r0, r1, c0, c1)
            assert got.tobytes() == want.tobytes(), (
                recompute.__name__, (r0, r1, c0, c1))


# ----------------------------------------------------------------------
# Memory: temporaries scale with contributions, not entities × span²
# ----------------------------------------------------------------------
def _spanning_design() -> tuple:
    """3000 cells in 1500 short two-pin nets, plus four port nets that
    each span the whole 64 µm die."""
    rng = np.random.default_rng(5)
    die = Die(width=64.0, height=64.0, macros=[Rect(0.0, 0.0, 10.0, 10.0)])
    nl = Netlist("spanning")
    pl = Placement(die=die)
    cells = []
    for _ in range(1500):
        x, y = rng.uniform(1.0, 63.0, size=2)
        driver = nl.add_cell("NAND2_X1").cid
        sink = nl.add_cell("NAND2_X1").cid
        pl.cell_xy[driver] = (float(x), float(y))
        pl.cell_xy[sink] = (float(x) + 0.4, float(y) + 0.3)
        nid = nl.create_net(nl.cells[driver].output_pin).nid
        nl.connect(nid, nl.cells[sink].input_pins[0])
        cells += [driver, sink]
    corners = [(0.0, 0.0), (64.0, 64.0), (0.0, 64.0), (64.0, 0.0)]
    for k, (x, y) in enumerate(corners):
        port = nl.add_port(f"p{k}", IN)
        die.port_positions[port.pin] = (x, y)
        far = nl.add_cell("INV_X1").cid
        pl.cell_xy[far] = (64.0 - x, 64.0 - y)
        nl.connect(nl.create_net(port.pin).nid, nl.cells[far].input_pins[0])
    return nl, pl


def _contribution_count(netlist: Netlist, placement: Placement,
                        m: int, n: int) -> int:
    """Exact (entity, bin) contributions of the three maps."""
    die = placement.die
    bin_w, bin_h = die.width / m, die.height / n
    count = 0
    for cid, (x, y) in placement.cell_xy.items():
        half_w = 0.5 * max(netlist.cell_type(cid).area, 1.0)
        count += (len(_ref_axis_overlap(x - half_w, x + half_w, m, bin_w)[1])
                  * len(_ref_axis_overlap(y - 0.5, y + 0.5, n, bin_h)[1]))
    for net in netlist.nets.values():
        pts = placement.pin_positions(netlist, [net.driver, *net.sinks])
        (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
        count += (len(_ref_axis_overlap(x0, x1, m, bin_w)[1])
                  * len(_ref_axis_overlap(y0, y1, n, bin_h)[1]))
    for r in die.macros:
        count += (len(_ref_axis_overlap(r.x0, r.x1, m, bin_w)[1])
                  * len(_ref_axis_overlap(r.y0, r.y1, n, bin_h)[1]))
    return count


def test_peak_memory_scales_with_contributions():
    nl, pl = _spanning_design()
    m = n = 64
    exact = _contribution_count(nl, pl, m, n)
    entities = len(pl.cell_xy) + len(nl.nets) + len(pl.die.macros)
    padded = entities * m * n  # one full-die patch row per entity
    assert padded > 50 * exact  # the design separates the two regimes

    compute_layout_maps(nl, pl, m, n)  # warm imports and caches
    tracemalloc.start()
    try:
        compute_layout_maps(nl, pl, m, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 12 * 8 * (exact + entities)
    assert peak <= bound, (
        f"peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB for "
        f"{exact} contributions (padding would need "
        f"{padded * 8 / 2**20:.0f} MiB per array)")
