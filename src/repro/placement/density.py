"""Layout feature maps: cell density, RUDY and macro region.

These are the three input channels of the paper's CNN branch (Section V-A,
Fig. 5).  The layout is divided into M×N bins (the paper uses 512×512; we
default to a configurable, smaller grid for CPU-scale experiments — the
paper value remains supported).

Map convention: ``map[i, j]`` covers x-bin ``i`` and y-bin ``j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.netlist import Netlist
from repro.placement.placer import Placement
from repro.utils import require


@dataclass(frozen=True)
class LayoutMaps:
    """The stacked layout feature maps of one placed design."""

    cell_density: np.ndarray  # (M, N), utilization in [0, ~1]
    rudy: np.ndarray          # (M, N), wire density estimate
    macro: np.ndarray         # (M, N), macro coverage fraction in [0, 1]
    bin_w: float
    bin_h: float

    @property
    def shape(self) -> tuple:
        return self.cell_density.shape

    def stacked(self) -> np.ndarray:
        """(3, M, N) channel stack fed to the CNN."""
        return np.stack([self.cell_density, self.rudy, self.macro])

    def free_space(self) -> np.ndarray:
        """Fraction of each bin usable by the optimizer (Section V-A):
        high density and macro coverage both remove optimization headroom."""
        free = (1.0 - np.clip(self.cell_density, 0.0, 1.0)) * (1.0 - self.macro)
        return np.clip(free, 0.0, 1.0)


def bin_span(lo: float, hi: float, n_bins: int, bin_size: float) -> tuple:
    """Inclusive (first, last) bin indices covered by [lo, hi].

    Pure-scalar form of the bin range the rasterizer computes
    (:func:`_bin_range`), for callers with one interval at a time: the
    what-if featurizer sizes the region it refreshes with it.
    """
    if lo < 0.0:
        lo = 0.0
    if hi < lo:
        hi = lo
    b0 = int(lo / bin_size)
    if b0 > n_bins - 1:
        b0 = n_bins - 1
    b1 = int(math.ceil(hi / bin_size)) - 1
    if b1 < b0:
        b1 = b0
    elif b1 > n_bins - 1:
        b1 = n_bins - 1
    return b0, b1


def cell_extent(netlist: Netlist, placement: Placement,
                cid: int) -> tuple:
    """(x0, x1, y0, y1) footprint a cell contributes to the density map."""
    x, y = placement.cell_xy[cid]
    area = netlist.cell_type(cid).area
    half_w = 0.5 * max(area / 1.0, 1.0)
    return x - half_w, x + half_w, y - 0.5, y + 0.5


def _enumerate(counts: np.ndarray) -> tuple:
    """``(owner, local)`` listing ``range(c)`` for every count *c* in
    turn: entry *k* is item ``local[k]`` of ``owner[k]``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts,
                                              counts)
    return owner, local


def _bin_range(lo: np.ndarray, hi: np.ndarray, n_bins: int,
               bin_size: float) -> tuple:
    """``(lo, hi, b0, b1)``: the intervals [lo, hi] clamped to start at
    0 and not end before they start, and the inclusive first and last
    bins they cover."""
    # np.where rather than np.maximum: it picks like the builtin
    # max(0.0, lo) / max(lo, hi) of the scalar rasterizer, NaN included.
    lo = np.where(lo > 0.0, lo, 0.0)
    hi = np.where(hi > lo, hi, lo)
    b0 = np.clip(lo / bin_size, 0, n_bins - 1).astype(np.int64)
    b1 = np.clip(np.ceil(hi / bin_size) - 1, b0, n_bins - 1).astype(np.int64)
    return lo, hi, b0, b1


def _axis_spans(lo: np.ndarray, hi: np.ndarray, n_bins: int,
                bin_size: float) -> tuple:
    """Clipped per-bin overlap lengths of many intervals [lo, hi].

    Returns ``(count, idx, overlap)``: the number of bins each interval
    spans, then, concatenated in interval order, the covered bin indices
    and their overlap lengths.
    """
    lo, hi, b0, b1 = _bin_range(lo, hi, n_bins, bin_size)
    count = b1 - b0 + 1
    owner, local = _enumerate(count)
    idx = b0[owner] + local
    overlap = (np.minimum((idx + 1) * bin_size, hi[owner])
               - np.maximum(idx * bin_size, lo[owner]))
    return count, idx, np.clip(overlap, 0.0, None)


def _rasterize(x_lo: np.ndarray, x_hi: np.ndarray, y_lo: np.ndarray,
               y_hi: np.ndarray, m: int, n: int, bin_w: float,
               bin_h: float) -> tuple:
    """Every (entity, bin) contribution of a batch of rectangles.

    Returns ``(entity, flat_bin, patch, nx, ny)``.  The first three hold
    one entry per contribution, ordered by entity and, within an entity,
    row-major over its ``np.outer(wx, wy)`` patch, whose values
    ``patch`` holds; ``(nx[e], ny[e])`` is entity *e*'s patch shape.
    Nothing is padded to the largest span: memory is O(contributions).
    """
    nx, ix, wx = _axis_spans(x_lo, x_hi, m, bin_w)
    ny, iy, wy = _axis_spans(y_lo, y_hi, n, bin_h)
    x_owner = np.repeat(np.arange(len(nx)), nx)
    # Each x entry pairs with every y entry of its entity.
    xe, y_local = _enumerate(ny[x_owner])
    entity = x_owner[xe]
    ye = (np.cumsum(ny) - ny)[entity] + y_local
    del y_local
    flat_bin = ix[xe] * n + iy[ye]
    patch = wx[xe] * wy[ye]
    return entity, flat_bin, patch, nx, ny


def _patch_totals(patch: np.ndarray, nx: np.ndarray,
                  ny: np.ndarray) -> np.ndarray:
    """``patch.sum()`` of every entity's (nx, ny) block of *patch*.

    numpy sums a block pairwise over its flattened values.  Blocks of
    one shape are gathered into a (G, nx*ny) array whose row sums repeat
    that order exactly; grouping by shape keeps rows unpadded.
    """
    sizes = nx * ny
    start = np.cumsum(sizes) - sizes
    totals = np.empty(len(sizes))
    shape = nx * (int(ny.max(initial=0)) + 1) + ny
    order = np.argsort(shape, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(shape[order])) + 1):
        if len(group):
            rows = start[group][:, None] + np.arange(sizes[group[0]])
            totals[group] = patch[rows].sum(axis=1)
    return totals


def _bin_sums(flat_bin: np.ndarray, weight: np.ndarray, m: int,
              n: int) -> np.ndarray:
    """(m, n) per-bin sums of *weight*, each bin's added in array order."""
    sums = np.bincount(flat_bin, weights=weight, minlength=m * n)
    # An empty input sums to an integer array; the maps are float.
    return sums.astype(float, copy=False).reshape(m, n)


def _window_sums(flat_bin: np.ndarray, weight: np.ndarray, n: int,
                 r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """:func:`_bin_sums` of the entries in bins [r0..r1] × [c0..c1] of
    an (m, n) grid, as an (r1 - r0 + 1, c1 - c0 + 1) array."""
    i, j = np.divmod(flat_bin, n)
    keep = (i >= r0) & (i <= r1) & (j >= c0) & (j <= c1)
    cols = c1 - c0 + 1
    local = (i[keep] - r0) * cols + (j[keep] - c0)
    return _bin_sums(local, weight[keep], r1 - r0 + 1, cols)


def _reaches(boxes: tuple, m: int, n: int, bin_w: float, bin_h: float,
             r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Which rectangles ``(x_lo, x_hi, y_lo, y_hi)`` cover a bin in
    [r0..r1] × [c0..c1]; the others add nothing to those bins."""
    x_lo, x_hi, y_lo, y_hi = boxes
    _, _, i0, i1 = _bin_range(x_lo, x_hi, m, bin_w)
    _, _, j0, j1 = _bin_range(y_lo, y_hi, n, bin_h)
    return (i0 <= r1) & (i1 >= r0) & (j0 <= c1) & (j1 >= c0)


def _cell_boxes(netlist: Netlist, placement: Placement) -> tuple:
    """``(boxes, area)``: the footprints ``(x_lo, x_hi, y_lo, y_hi)``
    cells spread over the density map, and their areas, in cell order."""
    lib = netlist.library
    cells = netlist.cells
    xy = np.array(list(placement.cell_xy.values()),
                  dtype=float).reshape(-1, 2)
    area = np.array([lib.cell(cells[cid].type_name).area
                     for cid in placement.cell_xy], dtype=float)
    half_w = 0.5 * np.where(1.0 > area, 1.0, area)  # width at row height 1 µm
    x, y = xy[:, 0], xy[:, 1]
    return (x - half_w, x + half_w, y - 0.5, y + 0.5), area


def _density_entries(boxes: tuple, area: np.ndarray, m: int, n: int,
                     bin_w: float, bin_h: float) -> tuple:
    """``(flat_bin, weight)`` of cells with footprints *boxes*, in order.

    Each cell's row-height footprint is spread over the bins it overlaps
    in proportion to the overlap, so the map stays meaningful even when
    bins are smaller than the largest cells.  Weights are areas, before
    the division by the bin area.
    """
    entity, flat_bin, patch, nx, ny = _rasterize(*boxes, m, n, bin_w, bin_h)
    total = _patch_totals(patch, nx, ny)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = area[entity] * patch / total[entity]
    keep = total > 0  # an all-zero patch contributes nothing
    if keep.all():
        return flat_bin, weight
    keep = keep[entity]
    return flat_bin[keep], weight[keep]


def _rudy_entries(boxes: tuple, m: int, n: int, bin_w: float,
                  bin_h: float) -> tuple:
    """``(flat_bin, weight)`` of nets with pin boxes *boxes*, in order:
    (w + h) / (w * h) spread over the box, weighted by the exact
    bin-overlap fractions."""
    x0, x1, y0, y1 = boxes
    eps = 1e-6
    w = np.where(eps > x1 - x0, eps, x1 - x0)
    h = np.where(eps > y1 - y0, eps, y1 - y0)
    wire_density = (w + h) / (w * h)
    entity, flat_bin, patch, _, _ = _rasterize(x0, x1, y0, y1, m, n,
                                               bin_w, bin_h)
    # overlap area fraction
    return flat_bin, wire_density[entity] * (patch / (bin_w * bin_h))


def _net_boxes(netlist: Netlist, placement: Placement) -> tuple:
    """Pin bounding boxes ``(x0, x1, y0, y1)`` of all nets, in net order."""
    pins = netlist.pins
    cell_xy = placement.cell_xy
    ports = placement.die.port_positions
    counts = []
    xy = []
    for net in netlist.nets.values():
        counts.append(1 + len(net.sinks))
        for pid in (net.driver, *net.sinks):
            cell = pins[pid].cell
            xy.append(ports[pid] if cell is None else cell_xy[cell])
    if not counts:
        return (np.empty(0),) * 4
    pts = np.array(xy, dtype=float)
    starts = np.cumsum(counts) - counts
    lo = np.minimum.reduceat(pts, starts, axis=0)
    hi = np.maximum.reduceat(pts, starts, axis=0)
    return lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]


def compute_layout_maps(netlist: Netlist, placement: Placement,
                        m: int = 64, n: int = 64) -> LayoutMaps:
    """Compute the three feature maps for a placed netlist.

    Each map is one vectorized pass: all (entity, bin) contributions are
    computed as arrays and ``np.bincount`` sums them per bin in array
    order — cell, net or macro order — so every bin gets the same
    floating-point sum a per-entity ``map[patch window] += patch`` loop
    would, which the region helpers below reproduce bit for bit.
    """
    require(m > 0 and n > 0, "bin counts must be positive")
    die = placement.die
    bin_w = die.width / m
    bin_h = die.height / n
    bin_area = bin_w * bin_h

    density = _bin_sums(*_density_entries(*_cell_boxes(netlist, placement),
                                          m, n, bin_w, bin_h), m, n) / bin_area
    rudy = _bin_sums(*_rudy_entries(_net_boxes(netlist, placement), m, n,
                                    bin_w, bin_h), m, n)

    # --- Macro map: exact coverage fraction per bin.
    rects = np.array([(r.x0, r.x1, r.y0, r.y1) for r in die.macros],
                     dtype=float).reshape(-1, 4)
    _, flat_bin, patch, _, _ = _rasterize(*rects.T, m, n, bin_w, bin_h)
    macro = np.clip(_bin_sums(flat_bin, patch / bin_area, m, n), 0.0, 1.0)

    return LayoutMaps(cell_density=density, rudy=rudy, macro=macro,
                      bin_w=bin_w, bin_h=bin_h)


def recompute_density_region(netlist: Netlist, placement: Placement,
                             density: np.ndarray, r0: int, r1: int,
                             c0: int, c1: int) -> None:
    """Recompute the density bins [r0..r1] × [c0..c1] in place.

    The recomputed bins are **bit-identical** to a full
    :func:`compute_layout_maps` pass: the cells that reach the region go
    through the same kernel in the same order, a cell that does not
    reach it adds nothing to its bins, and the bin-area division is
    applied once after accumulation — exactly as in the full pass.  Used
    by the incremental what-if featurizer (:mod:`repro.serve`) to
    refresh only touched bins.
    """
    m, n = density.shape
    die = placement.die
    bin_w = die.width / m
    bin_h = die.height / n
    boxes, area = _cell_boxes(netlist, placement)
    near = _reaches(boxes, m, n, bin_w, bin_h, r0, r1, c0, c1)
    flat_bin, weight = _density_entries(tuple(b[near] for b in boxes),
                                        area[near], m, n, bin_w, bin_h)
    density[r0:r1 + 1, c0:c1 + 1] = (
        _window_sums(flat_bin, weight, n, r0, r1, c0, c1) / (bin_w * bin_h))


def recompute_rudy_region(netlist: Netlist, placement: Placement,
                          rudy: np.ndarray, r0: int, r1: int,
                          c0: int, c1: int) -> None:
    """Recompute the RUDY bins [r0..r1] × [c0..c1] in place.

    Bit-identical to the full pass for the same reason as
    :func:`recompute_density_region`: the same kernel, in net order.
    """
    m, n = rudy.shape
    die = placement.die
    bin_w = die.width / m
    bin_h = die.height / n
    boxes = _net_boxes(netlist, placement)
    near = _reaches(boxes, m, n, bin_w, bin_h, r0, r1, c0, c1)
    flat_bin, weight = _rudy_entries(tuple(b[near] for b in boxes), m, n,
                                     bin_w, bin_h)
    rudy[r0:r1 + 1, c0:c1 + 1] = _window_sums(flat_bin, weight, n,
                                              r0, r1, c0, c1)
