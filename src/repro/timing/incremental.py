"""Incremental STA for parameter-only edits (sizing, cell moves).

Commercial optimizers re-time after every trial move; re-running full STA
each time wastes work when the edit is local.  For edits that keep the
graph *topology* intact — gate resizing and placement moves —
:class:`IncrementalSTA` updates the static electrical data only where it
changed and re-propagates arrival/slew only from the lowest topological
level an edit can influence, reusing everything above it.  The result is
bit-identical to a fresh :func:`repro.timing.sta.run_sta` (verified in the
test suite).

Structural edits (buffering, decomposition, cloning) change the node set
and require :meth:`IncrementalSTA.rebuild`.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.netlist import Netlist
from repro.obs import get_metrics, get_tracer
from repro.placement import Placement
from repro.timing.graph import TimingGraph, build_timing_graph
from repro.timing.rc import PreRouteEstimator, WireLengthProvider
from repro.timing.sta import STAResult, TimingKernel


class IncrementalSTA:
    """Keeps an up-to-date :class:`STAResult` across local edits.

    Only edit bookkeeping lives here — which static data an edit
    touches, the dirty set and the level to re-sweep from; the
    propagation itself is the shared :class:`~repro.timing.sta.
    TimingKernel` that full STA runs.
    """

    def __init__(self, netlist: Netlist, placement: Placement,
                 clock_period: float,
                 wires: Optional[WireLengthProvider] = None) -> None:
        self.netlist = netlist
        self.placement = placement
        self.clock_period = clock_period
        self.wires = wires or PreRouteEstimator(netlist, placement)
        self.partial_updates = 0
        self.full_rebuilds = 0
        self._dirty: Set[int] = set()
        self._build()

    def _build(self) -> None:
        self.graph: TimingGraph = build_timing_graph(self.netlist)
        self._kernel = TimingKernel(self.graph, self.wires,
                                    self.netlist.library)
        self._kernel.forward(start_level=1)
        self.result = self._kernel.package(self.clock_period, copy=True)

    # ------------------------------------------------------------------
    # Edit notifications
    # ------------------------------------------------------------------
    def resize_cell(self, cid: int, new_type_name: str) -> None:
        """Change a cell's drive in place and mark the affected cone.

        A resize changes (a) the cell's arc delays and (b) its input pin
        caps, which alter the loads and wire delays of the driving nets —
        so the fan-in drivers' arcs change too.
        """
        nl = self.netlist
        inst = nl.cells[cid]
        nl.change_cell_type(cid, new_type_name)
        node_of = self.graph.node_of
        self._kernel.set_cell_types([inst])
        self._dirty.add(node_of[inst.output_pin])
        for ip in inst.input_pins:
            net_id = nl.pins[ip].net
            if net_id is None:
                continue
            net = nl.nets[net_id]
            self._dirty.add(node_of[net.driver])
            for sp in net.sinks:
                self._dirty.add(node_of[sp])

    def move_cell(self, cid: int, x: float, y: float) -> None:
        """Move a cell; all nets touching it change wire lengths."""
        nl = self.netlist
        self.placement.set_position(cid, x, y)
        node_of = self.graph.node_of
        edge_of_sink = self.graph.edge_of_sink
        inst = nl.cells[cid]
        for pid in list(inst.input_pins) + [inst.output_pin]:
            net_id = nl.pins[pid].net
            if net_id is None:
                continue
            net = nl.nets[net_id]
            self._dirty.add(node_of[net.driver])
            for sp in net.sinks:
                sink_node = node_of[sp]
                self._kernel.wire_len[edge_of_sink[sink_node]] = (
                    self.wires.length(net.driver, sp))
                self._dirty.add(sink_node)

    def rebuild(self) -> STAResult:
        """Full rebuild (required after structural netlist edits)."""
        self._dirty.clear()
        self.full_rebuilds += 1
        with get_tracer().span("sta.rebuild", design=self.netlist.name):
            self._build()
        get_metrics().counter("sta.incremental.full_rebuilds").inc()
        return self.result

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh(self) -> STAResult:
        """Re-propagate from the lowest dirty level; returns fresh result."""
        if not self._dirty:
            return self.result
        start = max(1, int(self.graph.level[list(self._dirty)].min()))
        with get_tracer().span("sta.refresh", design=self.netlist.name,
                               start_level=start):
            self._kernel.update_wires()
            self._kernel.forward(start_level=start)
            self.result = self._kernel.package(self.clock_period, copy=True)
        self._dirty.clear()
        self.partial_updates += 1
        metrics = get_metrics()
        metrics.counter("sta.incremental.partial").inc()
        metrics.histogram("sta.incremental.start_level").observe(start)
        return self.result
