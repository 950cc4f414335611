"""Pin-level timing graph with topological levelization.

This is the data representation of the paper's Section IV-A: every pin is a
node; **net edges** connect a net's driver pin to each sink pin, **cell
edges** connect each input pin of a combinational cell to its output pin.
Cell edges of sequential elements are cut, so the graph is a DAG; its
topological levels drive both the STA propagation order and the paper's
GNN message-passing schedule and longest-path masking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netlist import Netlist
from repro.obs import get_tracer
from repro.utils import require

# Node kinds.
SOURCE = 0     # startpoints: primary-input pads and flip-flop Q pins
NET_SINK = 1   # destination of a net edge
CELL_OUT = 2   # destination of cell edges (combinational output pin)


@dataclass
class TimingGraph:
    """Array-form DAG over the pins of a netlist.

    Node order is the sorted pin-id order at build time; ``pin_ids[i]`` maps
    node *i* back to its netlist pin.
    """

    netlist: Netlist
    pin_ids: np.ndarray                 # (n,) node -> pin id
    node_of: Dict[int, int]             # pin id -> node
    kind: np.ndarray                    # (n,) SOURCE / NET_SINK / CELL_OUT
    level: np.ndarray                   # (n,) topological level, sources = 0
    levels: List[np.ndarray]            # nodes grouped by level (ascending)
    net_edge_src: np.ndarray            # (E_n,) driver node per net edge
    net_edge_dst: np.ndarray            # (E_n,) sink node per net edge
    cell_edge_src: np.ndarray           # (E_c,) input node per cell edge
    cell_edge_dst: np.ndarray           # (E_c,) output node per cell edge
    # CSR-style predecessor structure over ALL edges (net + cell):
    pred_ptr: np.ndarray                # (n+1,)
    pred_idx: np.ndarray                # (sum,) predecessor nodes
    pred_is_cell: np.ndarray            # (sum,) True where the edge is a cell edge
    # Propagation groups, cached for every STA sweep over this graph:
    edge_of_sink: np.ndarray            # (n,) net edge into a node, -1 if none
    net_edges_at: List[np.ndarray]      # per level: net edges into its NET_SINKs
    cell_edges_at: List[np.ndarray]     # per level: cell edges into its nodes
    # Populated and validated by :func:`build_timing_graph`; ``None`` only
    # on hand-rolled partial graphs (the annotation is honest about it).
    endpoints: Optional[np.ndarray] = None    # endpoint nodes
    startpoints: Optional[np.ndarray] = None  # source nodes

    @property
    def n_nodes(self) -> int:
        return len(self.pin_ids)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def predecessors(self, node: int) -> np.ndarray:
        return self.pred_idx[self.pred_ptr[node]:self.pred_ptr[node + 1]]

    def nodes(self, pids: Sequence[int]) -> np.ndarray:
        """Node index of each pin id in *pids* (vectorized ``node_of``)."""
        return _nodes(self.pin_ids, pids)


def build_timing_graph(netlist: Netlist) -> TimingGraph:
    """Construct the pin-level DAG and its topological levels.

    Emits a ``timing.graph`` tracer span, so profiles split graph
    construction from the STA runs that follow it.
    """
    with get_tracer().span("timing.graph", design=netlist.name):
        return _build(netlist)


def _build(netlist: Netlist) -> TimingGraph:
    pin_ids = np.array(sorted(netlist.pins), dtype=np.int64)
    node_of = dict(zip(pin_ids.tolist(), range(len(pin_ids))))
    n = len(pin_ids)

    net_src: List[int] = []
    net_dst: List[int] = []
    for net in netlist.nets.values():
        net_src.extend([net.driver] * len(net.sinks))
        net_dst.extend(net.sinks)
    # Combinational cells give cell edges; flip-flops give the D-pin
    # endpoints and Q-pin startpoints (Netlist.endpoint_pins /
    # startpoint_pins, gathered in the same pass).
    lib = netlist.library
    sequential: Dict[str, bool] = {}
    cell_src: List[int] = []
    cell_dst: List[int] = []
    end_pins = [p.pin for p in netlist.primary_outputs()]
    start_pins = [p.pin for p in netlist.primary_inputs()]
    for inst in netlist.cells.values():
        seq = sequential.get(inst.type_name)
        if seq is None:
            seq = sequential[inst.type_name] = lib.cell(
                inst.type_name).is_sequential
        if seq:
            end_pins.append(inst.input_pins[0])
            start_pins.append(inst.output_pin)
        else:
            cell_src.extend(inst.input_pins)
            cell_dst.extend([inst.output_pin] * len(inst.input_pins))

    net_edge_src = _nodes(pin_ids, net_src)
    net_edge_dst = _nodes(pin_ids, net_dst)
    cell_edge_src = _nodes(pin_ids, cell_src)
    cell_edge_dst = _nodes(pin_ids, cell_dst)

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
    pred_idx = all_src[order]
    pred_is_cell = is_cell[order]
    indeg = np.bincount(all_dst, minlength=n)
    pred_ptr = np.concatenate(([0], np.cumsum(indeg)))

    # Successor CSR for the levelization sweep.
    succ_idx = all_dst[np.argsort(all_src, kind="stable")]
    succ_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(all_src, minlength=n))))

    # Kahn levelization, one frontier at a time: gather the frontier's
    # successors through the CSR, retire their in-degrees in one step,
    # and the nodes that reach zero form the next level (sorted, as
    # np.unique returns them).
    level = np.zeros(n, dtype=np.int64)
    levels: List[np.ndarray] = []
    cur = np.flatnonzero(indeg == 0)
    while len(cur):
        level[cur] = len(levels)
        levels.append(cur)
        starts = succ_ptr[cur]
        counts = succ_ptr[cur + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        ends = np.cumsum(counts)
        gather = np.repeat(starts - ends + counts, counts) + np.arange(total)
        succ, hits = np.unique(succ_idx[gather], return_counts=True)
        indeg[succ] -= hits
        cur = succ[indeg[succ] == 0]
    require(sum(len(lv) for lv in levels) == n,
            "netlist timing graph contains a cycle")

    # Per-level propagation groups: the net edge into each NET_SINK node
    # (ascending sink node) and the cell edges into each level (edge order).
    edge_of_sink = np.full(n, -1, dtype=np.int64)
    edge_of_sink[net_edge_dst] = np.arange(len(net_edge_dst))
    sinks = np.flatnonzero(kind == NET_SINK)
    net_edges_at = _group_by_level(edge_of_sink[sinks], level[sinks],
                                   len(levels))
    cell_edges_at = _group_by_level(np.arange(len(cell_edge_dst)),
                                    level[cell_edge_dst], len(levels))

    endpoints = _nodes(pin_ids, sorted(end_pins))
    startpoints = _nodes(pin_ids, sorted(start_pins))
    require(bool(np.all(level[startpoints] == 0)),
            "startpoints must sit at topological level 0")
    return TimingGraph(
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
        edge_of_sink=edge_of_sink,
        net_edges_at=net_edges_at,
        cell_edges_at=cell_edges_at,
        endpoints=endpoints,
        startpoints=startpoints,
    )


def _nodes(pin_ids: np.ndarray, pids: Sequence[int]) -> np.ndarray:
    """Node index of each pin id (``pin_ids`` is sorted)."""
    pids = np.asarray(pids, dtype=np.int64)
    idx = np.searchsorted(pin_ids, pids)
    require(bool(np.all(idx < len(pin_ids)))
            and bool(np.array_equal(pin_ids[idx], pids)),
            "timing graph references a pin missing from the netlist")
    return idx


def _group_by_level(items: np.ndarray, item_level: np.ndarray,
                    n_levels: int) -> List[np.ndarray]:
    """*items* split by level, keeping their order within each level."""
    order = np.argsort(item_level, kind="stable")
    bounds = np.searchsorted(item_level[order],
                             np.arange(n_levels + 1)).tolist()
    grouped = items[order]
    return [grouped[bounds[lv]:bounds[lv + 1]] for lv in range(n_levels)]
