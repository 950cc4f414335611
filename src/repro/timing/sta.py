"""Vectorized static timing analysis (PERT traversal).

Propagates arrival time and slew through the pin-level DAG in topological
level order — the classic single-pass PERT sweep of [5] in the paper.  Cell
arcs are evaluated through the batched NLDM tables; net arcs use the Elmore
model with wire lengths from a pluggable :class:`WireLengthProvider`, so the
same engine produces both the pre-routing estimate and the sign-off timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.netlist import CellInst
from repro.obs import get_metrics, get_tracer
from repro.timing.constraints import TimingConstraints
from repro.timing.graph import TimingGraph
from repro.timing.nldm import batch_nldm_for
from repro.timing.rc import PreRouteEstimator, WireLengthProvider
from repro.utils import require

#: Electrical boundary conditions.
PI_INPUT_SLEW = 10.0   # ps, slew at primary inputs
PO_LOAD_FF = 2.0       # fF, load presented by an output pad
SLEW_WIRE_FACTOR = 0.7  # slew degradation per ps of wire delay


@dataclass
class STAResult:
    """Full result of one STA run.

    Per-edge delays are kept as arrays in graph edge order
    (``wire_delay`` per net edge, ``cell_delay`` per cell edge); the
    pin-pair keyed :attr:`net_edge_delay` / :attr:`cell_edge_delay`
    dicts are built on first access only.
    """

    graph: TimingGraph
    clock_period: float
    arrival: np.ndarray            # (n,) per node, ps
    slew: np.ndarray               # (n,) per node, ps
    required: np.ndarray           # (n,) per node required time, ps
    load: np.ndarray               # (n,) capacitive load seen by OUT pins, fF
    best_pred: np.ndarray          # (n,) winning predecessor node (-1 = none)
    endpoint_arrival: Dict[int, float]   # endpoint pin id -> arrival
    endpoint_slack: Dict[int, float]     # endpoint pin id -> slack
    wire_delay: Optional[np.ndarray] = None   # (E_n,) per net edge, ps
    cell_delay: Optional[np.ndarray] = None   # (E_c,) per cell edge, ps

    @cached_property
    def net_edge_delay(self) -> Dict[Tuple[int, int], float]:
        """(driver pin, sink pin) -> wire delay (ps), built on first use."""
        g = self.graph
        return _edge_map(g.pin_ids, g.net_edge_src, g.net_edge_dst,
                         self.wire_delay)

    @cached_property
    def cell_edge_delay(self) -> Dict[Tuple[int, int], float]:
        """(input pin, output pin) -> cell arc delay (ps), built on first use."""
        g = self.graph
        return _edge_map(g.pin_ids, g.cell_edge_src, g.cell_edge_dst,
                         self.cell_delay)

    @property
    def node_slack(self) -> np.ndarray:
        """Per-node slack from the backward required-time sweep."""
        return self.required - self.arrival

    @property
    def wns(self) -> float:
        """Worst negative slack (ps); positive if all endpoints meet timing.

        NaN when the design has no timing endpoints (no flip-flop D pins
        and no primary outputs) — there is no slack to report.
        """
        if not self.endpoint_slack:
            return float("nan")
        return min(self.endpoint_slack.values())

    @property
    def tns(self) -> float:
        """Total negative slack (ps, ≤ 0); 0.0 with no endpoints."""
        return sum(min(0.0, s) for s in self.endpoint_slack.values())

    @property
    def max_arrival(self) -> float:
        """Latest endpoint arrival (ps); NaN when there are no endpoints."""
        if not self.endpoint_arrival:
            return float("nan")
        return max(self.endpoint_arrival.values())

    def critical_path(self, endpoint_pin: int) -> List[int]:
        """Pins on the worst path into *endpoint_pin*, startpoint first."""
        g = self.graph
        node = g.node_of[endpoint_pin]
        path = [node]
        while self.best_pred[node] >= 0:
            node = int(self.best_pred[node])
            path.append(node)
        return [int(g.pin_ids[v]) for v in reversed(path)]


def _edge_map(pin_ids: np.ndarray, src: np.ndarray, dst: np.ndarray,
              delay: Optional[np.ndarray]) -> Dict[Tuple[int, int], float]:
    """Pin-pair keyed per-edge delays, in edge order."""
    if delay is None:
        return {}
    return dict(zip(zip(pin_ids[src].tolist(), pin_ids[dst].tolist()),
                    delay.tolist()))


def _argmax_per_dst(cand: np.ndarray, dst: np.ndarray,
                    arrival: np.ndarray) -> np.ndarray:
    """Index of the winning arc per destination: a deterministic argmax.

    ``arrival[dst]`` already holds the per-destination maximum (via
    ``np.maximum.at``), so the winners are the arcs whose candidate
    equals it *exactly*; on exact ties the first arc in edge order wins.
    A tolerance mask here (the old ``cand >= arrival[dst] - 1e-9``)
    could select several rows per destination, making the subsequent
    fancy-indexed slew/best_pred writes depend on edge array order and
    possibly follow a near-tied arc that is not the true maximum.
    """
    exact = np.flatnonzero(cand == arrival[dst])
    _, first = np.unique(dst[exact], return_index=True)
    return exact[first]


def run_sta(graph: TimingGraph, wires: WireLengthProvider,
            clock_period: float,
            constraints: "TimingConstraints" = None,
            corner=None) -> STAResult:
    """Run a full arrival-time propagation over *graph*.

    ``constraints`` optionally adds SDC-style input/output delays; its
    clock period, if provided, must agree with *clock_period* (pass
    ``constraints.clock_period`` explicitly to avoid surprises).

    ``corner`` optionally times the graph at a derated PVT corner (a
    :class:`~repro.timing.corners.Corner` or a registered corner name);
    ``None`` and identity corners use the netlist's nominal library
    unchanged — the same object, so results stay bit-identical to a
    corner-less call.

    Each run emits an ``sta.run`` tracer span and bumps the ``sta.runs``
    / ``sta.nldm_lookups`` counters.  The instrumentation lives in this
    wrapper so :func:`_run_sta_impl` stays an uninstrumented baseline for
    the observability overhead benchmark.
    """
    with get_tracer().span("sta.run", design=graph.netlist.name,
                           n_nodes=graph.n_nodes):
        result = _run_sta_impl(graph, wires, clock_period, constraints,
                               corner=corner)
    metrics = get_metrics()
    metrics.counter("sta.runs").inc()
    metrics.counter("sta.nldm_lookups").inc(len(graph.cell_edge_src))
    return result


def _run_sta_impl(graph: TimingGraph, wires: WireLengthProvider,
                  clock_period: float,
                  constraints: "TimingConstraints" = None,
                  corner=None) -> STAResult:
    lib = graph.netlist.library
    if corner is not None:
        from repro.timing.corners import derate_library

        lib = derate_library(lib, corner)
    kernel = TimingKernel(graph, wires, lib, constraints)
    kernel.forward(start_level=1)
    return kernel.package(clock_period)


class TimingKernel:
    """Propagation state of one timing graph: the one STA engine.

    Holds the static electrical data (pin caps, output cell types, wire
    lengths, wire delays and driver loads) and the per-node arrival /
    slew / winning-predecessor arrays.  Full STA (:func:`run_sta`) builds
    a kernel, sweeps it once and packages it; :class:`~repro.timing.
    incremental.IncrementalSTA` keeps one alive, patches its static data
    on edits and re-sweeps from the lowest touched level.
    """

    def __init__(self, graph: TimingGraph, wires: WireLengthProvider,
                 lib, constraints: "TimingConstraints" = None) -> None:
        self.graph = graph
        self.lib = lib
        self.constraints = constraints
        self.nldm = batch_nldm_for(lib)
        n = graph.n_nodes
        self.pin_cap = np.zeros(n)
        self.out_type = np.zeros(n, dtype=np.int64)
        nl = graph.netlist
        self.pin_cap[graph.nodes([p.pin for p in nl.primary_outputs()])] = (
            PO_LOAD_FF)
        self.set_cell_types(nl.cells.values())
        self.wire_len = _wire_lengths(graph, wires)
        self.update_wires()
        self.cell_delay = np.zeros(len(graph.cell_edge_src))
        self.arrival = np.full(n, -np.inf)
        self.slew = np.full(n, PI_INPUT_SLEW)
        self.best_pred = np.full(n, -1, dtype=np.int64)
        self._init_sources()

    def set_cell_types(self, cells: Iterable[CellInst]) -> None:
        """(Re)load the input-pin caps and output NLDM type ids of
        *cells* from their current library types.

        Callers changing a cell's type call :meth:`update_wires` before
        the next sweep (the caps feed wire delays and driver loads).
        """
        per_type: Dict[str, Tuple[float, int]] = {}
        in_pins: List[int] = []
        caps: List[float] = []
        out_pins: List[int] = []
        types: List[int] = []
        for inst in cells:
            name = inst.type_name
            cached = per_type.get(name)
            if cached is None:
                cached = per_type[name] = (self.lib.cell(name).input_cap,
                                           self.nldm.type_id(name))
            in_pins.extend(inst.input_pins)
            caps.extend([cached[0]] * len(inst.input_pins))
            out_pins.append(inst.output_pin)
            types.append(cached[1])
        self.pin_cap[self.graph.nodes(in_pins)] = caps
        self.out_type[self.graph.nodes(out_pins)] = types

    def update_wires(self) -> None:
        """Star-Elmore wire delays and driver loads from ``wire_len``.

        A driver's load is its sinks' pin caps plus the total wire
        capacitance of its net.
        """
        g = self.graph
        w = self.lib.wire
        sink_cap = self.pin_cap[g.net_edge_dst]
        self.wire_delay = w.resistance(self.wire_len) * (
            0.5 * w.capacitance(self.wire_len) + sink_cap)
        self.load = np.zeros(g.n_nodes)
        np.add.at(self.load, g.net_edge_src,
                  sink_cap + w.capacitance(self.wire_len))

    def _init_sources(self) -> None:
        """Launch arrivals: input delays at primary inputs, clk-to-q at
        flip-flop Q pins, 0 at isolated nodes."""
        g, nl = self.graph, self.graph.netlist
        for node, pid in zip(g.startpoints.tolist(),
                             g.pin_ids[g.startpoints].tolist()):
            pin = nl.pins[pid]
            if pin.cell is None:
                self.arrival[node] = (
                    self.constraints.input_delay(pin.name)
                    if self.constraints is not None else 0.0)
            else:  # flip-flop Q launch
                self.arrival[node] = self.lib.cell(
                    nl.cells[pin.cell].type_name).clk_to_q
        lonely = (g.level == 0) & (self.arrival == -np.inf)
        self.arrival[lonely] = 0.0

    def forward(self, start_level: int) -> None:
        """Re-propagate arrival and slew over levels ``start_level..``.

        Levels below *start_level* must already hold their final values.
        """
        g = self.graph
        arrival, slew, best_pred = self.arrival, self.slew, self.best_pred
        e_src, e_dst = g.net_edge_src, g.net_edge_dst
        c_src, c_dst = g.cell_edge_src, g.cell_edge_dst
        for lvl in range(start_level, g.n_levels):
            # Net sinks: single incoming net edge.
            edges = g.net_edges_at[lvl]
            if len(edges):
                src = e_src[edges]
                sinks = e_dst[edges]
                delay = self.wire_delay[edges]
                arrival[sinks] = arrival[src] + delay
                slew[sinks] = slew[src] + SLEW_WIRE_FACTOR * delay
                best_pred[sinks] = src

            # Cell outputs: max over all incoming cell arcs.
            chunk = g.cell_edges_at[lvl]
            if len(chunk):
                src = c_src[chunk]
                dst = c_dst[chunk]
                d, s_out = self.nldm.lookup(self.out_type[dst], slew[src],
                                            self.load[dst])
                self.cell_delay[chunk] = d
                arrival[dst] = -np.inf
                cand = arrival[src] + d
                np.maximum.at(arrival, dst, cand)
                sel = _argmax_per_dst(cand, dst, arrival)
                slew[dst[sel]] = s_out[sel]
                best_pred[dst[sel]] = src[sel]
        require(bool(np.all(np.isfinite(arrival))),
                "arrival propagation left unreachable nodes")

    def package(self, clock_period: float, copy: bool = False) -> STAResult:
        """Endpoint slacks, the backward required-time sweep and the
        result; *copy* detaches it from this kernel's live arrays."""
        g = self.graph
        eps = g.endpoints
        required = np.full(g.n_nodes, np.inf)
        required[eps] = clock_period - self._setup_times()
        pids = g.pin_ids[eps].tolist()
        ep_arrival = self.arrival[eps]
        endpoint_arrival = dict(zip(pids, ep_arrival.tolist()))
        endpoint_slack = dict(zip(pids, (required[eps]
                                         - ep_arrival).tolist()))

        # Backward sweep (levels in reverse):
        # required[src] = min over out-edges (required[dst] - edge delay).
        e_src, e_dst = g.net_edge_src, g.net_edge_dst
        c_src, c_dst = g.cell_edge_src, g.cell_edge_dst
        for lvl in range(g.n_levels - 1, 0, -1):
            edges = g.net_edges_at[lvl]
            if len(edges):
                np.minimum.at(required, e_src[edges],
                              required[e_dst[edges]]
                              - self.wire_delay[edges])
            chunk = g.cell_edges_at[lvl]
            if len(chunk):
                np.minimum.at(required, c_src[chunk],
                              required[c_dst[chunk]]
                              - self.cell_delay[chunk])

        def out(a: np.ndarray) -> np.ndarray:
            return a.copy() if copy else a

        return STAResult(
            graph=g,
            clock_period=clock_period,
            arrival=out(self.arrival),
            slew=out(self.slew),
            required=required,
            load=out(self.load),
            best_pred=out(self.best_pred),
            endpoint_arrival=endpoint_arrival,
            endpoint_slack=endpoint_slack,
            wire_delay=out(self.wire_delay),
            cell_delay=out(self.cell_delay),
        )

    def _setup_times(self) -> np.ndarray:
        """Per-endpoint setup time: the flip-flop's, or the output delay
        of a primary output (0 without constraints)."""
        g, nl = self.graph, self.graph.netlist
        setup: List[float] = []
        for pid in g.pin_ids[g.endpoints].tolist():
            pin = nl.pins[pid]
            if pin.cell is not None:
                setup.append(self.lib.cell(
                    nl.cells[pin.cell].type_name).setup_time)
            elif self.constraints is not None:
                setup.append(self.constraints.output_delay(pin.name))
            else:
                setup.append(0.0)
        return np.array(setup, dtype=float)


def _wire_lengths(graph: TimingGraph,
                  wires: WireLengthProvider) -> np.ndarray:
    """Per-net-edge wire length (µm) from *wires*.

    The pre-route estimate is computed from one gathered position array
    (``|dx| + |dy|`` in float64, the same arithmetic as
    :meth:`PreRouteEstimator.length`); other providers are asked per edge.
    """
    e_src, e_dst = graph.net_edge_src, graph.net_edge_dst
    if type(wires) is PreRouteEstimator:
        on_net = np.zeros(graph.n_nodes, dtype=bool)
        on_net[e_src] = True
        on_net[e_dst] = True
        nodes = np.flatnonzero(on_net)
        pins = wires.netlist.pins
        cell_xy = wires.placement.cell_xy
        ports = wires.placement.die.port_positions
        xy = np.zeros((graph.n_nodes, 2))
        xy[nodes] = np.array(
            [ports[pid] if pins[pid].cell is None else cell_xy[pins[pid].cell]
             for pid in graph.pin_ids[nodes].tolist()],
            dtype=float).reshape(-1, 2)
        d = np.abs(xy[e_src] - xy[e_dst])
        return d[:, 0] + d[:, 1]
    return np.array([wires.length(a, b) for a, b in zip(
        graph.pin_ids[e_src].tolist(), graph.pin_ids[e_dst].tolist())],
        dtype=float)
