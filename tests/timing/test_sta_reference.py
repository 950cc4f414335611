"""Reference battery: the array-native timing kernel against frozen copies
of the graph construction and full STA it replaced.

The timing graph's levels drive STA, the GNN's message-passing schedule
and the longest-path masks; the STA arrays become labels, features and
golden files.  The live code levelizes one frontier at a time, loads
static data per cell and shares one propagation kernel with
incremental STA.  This module keeps verbatim copies of
``build_timing_graph`` and ``_run_sta_impl`` as they stood before that
change (only their return values are plain namespaces, since the live
dataclasses have moved on) and asserts byte equality on every paper
preset and on adversarial graphs.  Do not "modernize" the frozen copies
— their whole value is that they do not change.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List

import numpy as np
import pytest

from repro.netlist import DESIGN_PRESETS, IN, OUT, Netlist, generate_netlist
from repro.placement import Die, Placement, build_die, legalize, place
from repro.route import route
from repro.timing import (
    PreRouteEstimator,
    TimingConstraints,
    build_timing_graph,
    run_sta,
)
from repro.timing.graph import CELL_OUT, NET_SINK, SOURCE
from repro.timing.nldm import batch_nldm_for
from repro.timing.rc import WireLengthProvider
from repro.timing.sta import PI_INPUT_SLEW, PO_LOAD_FF, SLEW_WIRE_FACTOR
from repro.utils import require

PAPER_DESIGNS = tuple(n for n, s in DESIGN_PRESETS.items()
                      if s.split != "bench")
SCALES = (0.07, 0.25)


# ----------------------------------------------------------------------
# Frozen reference: the per-node Kahn levelization and full STA, verbatim.
# ----------------------------------------------------------------------
def _ref_build_timing_graph(netlist: Netlist) -> SimpleNamespace:
    """Construct the pin-level DAG and its topological levels."""
    pin_ids = np.array(sorted(netlist.pins), dtype=np.int64)
    node_of = {int(p): i for i, p in enumerate(pin_ids)}
    n = len(pin_ids)

    net_src, net_dst = [], []
    for drv, snk in netlist.net_edges():
        net_src.append(node_of[drv])
        net_dst.append(node_of[snk])
    cell_src, cell_dst = [], []
    for ip, op in netlist.cell_edges():
        cell_src.append(node_of[ip])
        cell_dst.append(node_of[op])

    net_edge_src = np.asarray(net_src, dtype=np.int64)
    net_edge_dst = np.asarray(net_dst, dtype=np.int64)
    cell_edge_src = np.asarray(cell_src, dtype=np.int64)
    cell_edge_dst = np.asarray(cell_dst, dtype=np.int64)

    kind = np.full(n, SOURCE, dtype=np.int8)
    kind[net_edge_dst] = NET_SINK
    kind[cell_edge_dst] = CELL_OUT

    # Predecessor CSR over the union of both edge types.
    all_src = np.concatenate([net_edge_src, cell_edge_src])
    all_dst = np.concatenate([net_edge_dst, cell_edge_dst])
    is_cell = np.concatenate([
        np.zeros(len(net_edge_src), dtype=bool),
        np.ones(len(cell_edge_src), dtype=bool),
    ])
    order = np.argsort(all_dst, kind="stable")
    sorted_dst = all_dst[order]
    pred_idx = all_src[order]
    pred_is_cell = is_cell[order]
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(pred_ptr, sorted_dst + 1, 1)
    pred_ptr = np.cumsum(pred_ptr)

    # Kahn levelization.
    indegree = np.zeros(n, dtype=np.int64)
    np.add.at(indegree, all_dst, 1)
    level = np.zeros(n, dtype=np.int64)
    frontier = np.where(indegree == 0)[0]
    levels: List[np.ndarray] = []
    # Successor CSR for the sweep.
    sorder = np.argsort(all_src, kind="stable")
    succ_idx = all_dst[sorder]
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(succ_ptr, all_src[sorder] + 1, 1)
    succ_ptr = np.cumsum(succ_ptr)

    visited = 0
    cur = frontier
    lvl = 0
    indeg = indegree.copy()
    while len(cur):
        levels.append(np.sort(cur))
        level[cur] = lvl
        visited += len(cur)
        nxt: List[int] = []
        for u in cur:
            for v in succ_idx[succ_ptr[u]:succ_ptr[u + 1]]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    nxt.append(int(v))
        cur = np.asarray(nxt, dtype=np.int64)
        lvl += 1
    require(visited == n, "netlist timing graph contains a cycle")

    endpoints = np.array(sorted(node_of[p] for p in netlist.endpoint_pins()),
                         dtype=np.int64)
    startpoints = np.array(sorted(node_of[p] for p in netlist.startpoint_pins()),
                           dtype=np.int64)
    require(len(endpoints) == 0 or
            (endpoints[0] >= 0 and endpoints[-1] < n),
            "endpoint nodes out of range")
    require(len(startpoints) == 0 or
            (startpoints[0] >= 0 and startpoints[-1] < n),
            "startpoint nodes out of range")
    require(bool(np.all(level[startpoints] == 0)),
            "startpoints must sit at topological level 0")
    return SimpleNamespace(
        netlist=netlist,
        pin_ids=pin_ids,
        node_of=node_of,
        kind=kind,
        level=level,
        levels=levels,
        net_edge_src=net_edge_src,
        net_edge_dst=net_edge_dst,
        cell_edge_src=cell_edge_src,
        cell_edge_dst=cell_edge_dst,
        pred_ptr=pred_ptr,
        pred_idx=pred_idx,
        pred_is_cell=pred_is_cell,
        endpoints=endpoints,
        startpoints=startpoints,
        n_nodes=n,
        n_levels=len(levels),
    )


def _ref_argmax_per_dst(cand: np.ndarray, dst: np.ndarray,
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



def _ref_run_sta_impl(graph: SimpleNamespace, wires: WireLengthProvider,
                  clock_period: float,
                  constraints: TimingConstraints = None,
                  corner=None) -> SimpleNamespace:
    nl = graph.netlist
    if corner is None:
        lib = nl.library
    else:
        from repro.timing.corners import derate_library

        lib = derate_library(nl.library, corner)
    nldm = batch_nldm_for(lib)
    n = graph.n_nodes

    # ------------------------------------------------------------------
    # Static per-node electrical data.
    # ------------------------------------------------------------------
    pin_cap = np.zeros(n)
    out_type_id = np.zeros(n, dtype=np.int64)
    po_pins = {p.pin for p in nl.primary_outputs()}
    for i, pid in enumerate(graph.pin_ids):
        pin = nl.pins[int(pid)]
        if pin.cell is not None and pin.direction == "in":
            pin_cap[i] = lib.cell(nl.cells[pin.cell].type_name).input_cap
        elif int(pid) in po_pins:
            pin_cap[i] = PO_LOAD_FF
        if pin.cell is not None and pin.direction == "out":
            out_type_id[i] = nldm.type_id(nl.cells[pin.cell].type_name)

    # Net-edge wire delays and per-driver total loads (star Elmore).
    e_src = graph.net_edge_src
    e_dst = graph.net_edge_dst
    wire_len = np.empty(len(e_src))
    for k in range(len(e_src)):
        wire_len[k] = wires.length(int(graph.pin_ids[e_src[k]]),
                                   int(graph.pin_ids[e_dst[k]]))
    w = lib.wire
    wire_delay = w.resistance(wire_len) * (
        0.5 * w.capacitance(wire_len) + pin_cap[e_dst])

    # Driver load: all sink pin caps + total wire capacitance of the net.
    load = np.zeros(n)
    np.add.at(load, e_src, pin_cap[e_dst] + w.capacitance(wire_len))

    # Map each NET_SINK node to its incoming net edge.
    edge_of_sink = np.full(n, -1, dtype=np.int64)
    edge_of_sink[e_dst] = np.arange(len(e_dst))

    # Group cell edges by the level of their output node.
    c_src = graph.cell_edge_src
    c_dst = graph.cell_edge_dst
    cell_edges_at: Dict[int, np.ndarray] = {}
    if len(c_dst):
        dst_level = graph.level[c_dst]
        order = np.argsort(dst_level, kind="stable")
        bounds = np.searchsorted(dst_level[order],
                                 np.arange(dst_level.max() + 2))
        for lvl in range(len(bounds) - 1):
            chunk = order[bounds[lvl]:bounds[lvl + 1]]
            if len(chunk):
                cell_edges_at[lvl] = chunk

    # ------------------------------------------------------------------
    # Initialize sources.
    # ------------------------------------------------------------------
    arrival = np.full(n, -np.inf)
    slew = np.full(n, PI_INPUT_SLEW)
    best_pred = np.full(n, -1, dtype=np.int64)
    for node in graph.startpoints:
        pid = int(graph.pin_ids[node])
        pin = nl.pins[pid]
        if pin.cell is None:
            arrival[node] = (constraints.input_delay(pin.name)
                             if constraints is not None else 0.0)
            slew[node] = PI_INPUT_SLEW
        else:  # flip-flop Q launch
            ctype = lib.cell(nl.cells[pin.cell].type_name)
            arrival[node] = ctype.clk_to_q
            slew[node] = PI_INPUT_SLEW
    # Isolated nodes (no preds, not startpoints) still get arrival 0.
    lonely = (graph.level == 0) & (arrival == -np.inf)
    arrival[lonely] = 0.0

    cell_delay = np.zeros(len(c_src))

    # ------------------------------------------------------------------
    # Level-by-level propagation.
    # ------------------------------------------------------------------
    for lvl in range(1, graph.n_levels):
        nodes = graph.levels[lvl]
        # Net sinks: single incoming net edge.
        sinks = nodes[graph.kind[nodes] == NET_SINK]
        if len(sinks):
            edges = edge_of_sink[sinks]
            src = e_src[edges]
            arrival[sinks] = arrival[src] + wire_delay[edges]
            slew[sinks] = slew[src] + SLEW_WIRE_FACTOR * wire_delay[edges]
            best_pred[sinks] = src

        # Cell outputs: max over all incoming cell arcs.
        chunk = cell_edges_at.get(lvl)
        if chunk is not None:
            src = c_src[chunk]
            dst = c_dst[chunk]
            d, s_out = nldm.lookup(out_type_id[dst], slew[src], load[dst])
            cell_delay[chunk] = d
            cand = arrival[src] + d
            np.maximum.at(arrival, dst, cand)
            sel = _ref_argmax_per_dst(cand, dst, arrival)
            slew[dst[sel]] = s_out[sel]
            best_pred[dst[sel]] = src[sel]

    require(bool(np.all(np.isfinite(arrival))),
            "arrival propagation left unreachable nodes")

    # ------------------------------------------------------------------
    # Endpoint slacks and per-edge delay reports.
    # ------------------------------------------------------------------
    endpoint_arrival: Dict[int, float] = {}
    endpoint_slack: Dict[int, float] = {}
    required = np.full(n, np.inf)
    for node in graph.endpoints:
        pid = int(graph.pin_ids[node])
        pin = nl.pins[pid]
        setup = 0.0
        if pin.cell is not None:
            setup = lib.cell(nl.cells[pin.cell].type_name).setup_time
        elif constraints is not None:
            setup = constraints.output_delay(pin.name)
        endpoint_arrival[pid] = float(arrival[node])
        endpoint_slack[pid] = float(clock_period - setup - arrival[node])
        required[node] = clock_period - setup

    # Backward required-time sweep (levels in reverse):
    # required[src] = min over out-edges (required[dst] - edge delay).
    for lvl in range(graph.n_levels - 1, 0, -1):
        nodes = graph.levels[lvl]
        sinks = nodes[graph.kind[nodes] == NET_SINK]
        if len(sinks):
            edges = edge_of_sink[sinks]
            np.minimum.at(required, e_src[edges],
                          required[sinks] - wire_delay[edges])
        chunk = cell_edges_at.get(lvl)
        if chunk is not None:
            np.minimum.at(required, c_src[chunk],
                          required[c_dst[chunk]] - cell_delay[chunk])

    net_edge_delay = {
        (int(graph.pin_ids[e_src[k]]), int(graph.pin_ids[e_dst[k]])):
            float(wire_delay[k])
        for k in range(len(e_src))
    }
    cell_edge_delay = {
        (int(graph.pin_ids[c_src[k]]), int(graph.pin_ids[c_dst[k]])):
            float(cell_delay[k])
        for k in range(len(c_src))
    }
    return SimpleNamespace(
        graph=graph,
        clock_period=clock_period,
        arrival=arrival,
        slew=slew,
        required=required,
        load=load,
        best_pred=best_pred,
        endpoint_arrival=endpoint_arrival,
        endpoint_slack=endpoint_slack,
        net_edge_delay=net_edge_delay,
        cell_edge_delay=cell_edge_delay,
    )


# ----------------------------------------------------------------------
# Byte-equality helpers.
# ----------------------------------------------------------------------
def _same_array(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert got.tobytes() == want.tobytes(), f"{what}: bytes differ"


def _same_dict(got: Dict, want: Dict, what: str) -> None:
    assert list(got) == list(want), f"{what}: keys differ"
    _same_array(np.array(list(got.values()), dtype=float),
                np.array(list(want.values()), dtype=float), what)


def _assert_graph_equal(got, want) -> None:
    for name in ("pin_ids", "kind", "level", "net_edge_src", "net_edge_dst",
                 "cell_edge_src", "cell_edge_dst", "pred_ptr", "pred_idx",
                 "pred_is_cell", "endpoints", "startpoints"):
        _same_array(getattr(got, name), getattr(want, name), name)
    assert got.node_of == want.node_of
    assert got.n_levels == want.n_levels
    for lvl, (a, b) in enumerate(zip(got.levels, want.levels)):
        _same_array(a, b, f"levels[{lvl}]")


def _assert_sta_equal(got, want) -> None:
    for name in ("arrival", "slew", "required", "load", "best_pred"):
        _same_array(getattr(got, name), getattr(want, name), name)
    _same_dict(got.endpoint_arrival, want.endpoint_arrival, "endpoint_arrival")
    _same_dict(got.endpoint_slack, want.endpoint_slack, "endpoint_slack")
    _same_dict(got.net_edge_delay, want.net_edge_delay, "net_edge_delay")
    _same_dict(got.cell_edge_delay, want.cell_edge_delay, "cell_edge_delay")


def _check(netlist: Netlist, wires: WireLengthProvider, period: float,
           constraints=None, corner=None) -> None:
    """Live graph + STA == frozen graph + STA, byte for byte."""
    graph = build_timing_graph(netlist)
    ref_graph = _ref_build_timing_graph(netlist)
    _assert_graph_equal(graph, ref_graph)
    _assert_sta_equal(
        run_sta(graph, wires, period, constraints, corner=corner),
        _ref_run_sta_impl(ref_graph, wires, period, constraints,
                          corner=corner))


# ----------------------------------------------------------------------
# The ten paper presets.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[(d, s) for s in SCALES
                                        for d in PAPER_DESIGNS],
                ids=lambda p: f"{p[0]}@{p[1]:g}")
def placed(request):
    name, scale = request.param
    spec = DESIGN_PRESETS[name].scaled(scale)
    nl = generate_netlist(spec)
    pl = place(nl, build_die(nl, spec))
    legalize(nl, pl)
    period = 0.7 * _ref_run_sta_impl(_ref_build_timing_graph(nl),
                                     PreRouteEstimator(nl, pl),
                                     1.0).arrival.max()
    return nl, pl, period


def test_preset_pre_route_sta_is_byte_identical(placed):
    nl, pl, period = placed
    _check(nl, PreRouteEstimator(nl, pl), period)


def test_preset_routed_sta_is_byte_identical(placed):
    nl, pl, period = placed
    _check(nl, route(nl, pl).lengths, period)


def test_preset_derated_corner_is_byte_identical(placed):
    nl, pl, period = placed
    _check(nl, PreRouteEstimator(nl, pl), period, corner="slow")


def test_preset_constraints_are_byte_identical(placed):
    nl, pl, period = placed
    ports = sorted(nl.ports)
    sdc = TimingConstraints(
        clock_period=period,
        input_delays={None: 7.5, ports[0]: 21.0},
        output_delays={None: 3.25, ports[-1]: 11.0})
    _check(nl, PreRouteEstimator(nl, pl), period, constraints=sdc)


# ----------------------------------------------------------------------
# Adversarial graphs.
# ----------------------------------------------------------------------
def _at_origin(nl: Netlist) -> Placement:
    """Every cell and port of *nl* at one point of a small die."""
    die = Die(width=20.0, height=20.0)
    for port in nl.ports.values():
        die.port_positions[port.pin] = (3.0, 3.0)
    pl = Placement(die=die)
    for cid in nl.cells:
        pl.set_position(cid, 10.0, 10.0)
    return pl


def test_empty_netlist():
    nl = Netlist("empty")
    _check(nl, PreRouteEstimator(nl, _at_origin(nl)), 100.0)
    g = build_timing_graph(nl)
    assert g.n_nodes == 0 and g.levels == []


def test_no_endpoints():
    nl = Netlist("open")
    a, b = nl.add_port("a", IN), nl.add_port("b", IN)
    g0 = nl.add_cell("AND2_X1", "g0")
    nl.connect(nl.create_net(a.pin).nid, g0.input_pins[0])
    nl.connect(nl.create_net(b.pin).nid, g0.input_pins[1])
    _check(nl, PreRouteEstimator(nl, _at_origin(nl)), 100.0)
    res = run_sta(build_timing_graph(nl), PreRouteEstimator(nl, _at_origin(nl)),
                  100.0)
    assert res.endpoint_arrival == {} and np.isnan(res.wns)


def test_isolated_nodes():
    """Unwired ports and a wholly unwired gate: level-0 nodes that are
    not startpoints launch at 0; an unwired output port is an endpoint."""
    nl = Netlist("islands")
    a = nl.add_port("a", IN)
    nl.add_port("lost_in", IN)
    nl.add_port("lost_out", OUT)
    po = nl.add_port("po", OUT)
    nl.add_cell("NAND2_X1", "floating")
    g0 = nl.add_cell("INV_X1", "g0")
    nl.connect(nl.create_net(a.pin).nid, g0.input_pins[0])
    nl.connect(nl.create_net(g0.output_pin).nid, po.pin)
    _check(nl, PreRouteEstimator(nl, _at_origin(nl)), 100.0)


def test_exact_tie_arcs():
    """Identical arcs into one gate: the first arc in edge order wins."""
    nl = Netlist("ties")
    a, b = nl.add_port("a", IN), nl.add_port("b", IN)
    po = nl.add_port("po", OUT)
    g_same = nl.add_cell("AND2_X1", "same_net")    # one net, both inputs
    g_pair = nl.add_cell("OR2_X1", "twin_ports")   # twin ports, same spot
    reg = nl.add_cell("DFF_X1", "reg")
    n_a = nl.create_net(a.pin)
    nl.connect(n_a.nid, g_same.input_pins[0])
    nl.connect(n_a.nid, g_same.input_pins[1])
    nl.connect(n_a.nid, g_pair.input_pins[0])
    nl.connect(nl.create_net(b.pin).nid, g_pair.input_pins[1])
    nl.connect(nl.create_net(g_same.output_pin).nid, reg.input_pins[0])
    nl.connect(nl.create_net(g_pair.output_pin).nid, po.pin)
    pl = _at_origin(nl)
    _check(nl, PreRouteEstimator(nl, pl), 100.0)
    g = build_timing_graph(nl)
    res = run_sta(g, PreRouteEstimator(nl, pl), 100.0)
    for gate in (g_same, g_pair):
        out = g.node_of[gate.output_pin]
        assert res.best_pred[out] == g.node_of[gate.input_pins[0]]


def test_cycle_still_raises():
    nl = Netlist("loop")
    g0 = nl.add_cell("INV_X1", "g0")
    g1 = nl.add_cell("INV_X1", "g1")
    nl.connect(nl.create_net(g0.output_pin).nid, g1.input_pins[0])
    nl.connect(nl.create_net(g1.output_pin).nid, g0.input_pins[0])
    with pytest.raises(ValueError, match="cycle"):
        _ref_build_timing_graph(nl)
    with pytest.raises(ValueError, match="cycle"):
        build_timing_graph(nl)
