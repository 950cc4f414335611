"""Tests for the timing optimizer loop."""

import pytest

from repro.netlist import DESIGN_PRESETS, generate_netlist
from repro.opt import OptimizerConfig, TimingOptimizer, optimize
from repro.placement import Placement, build_die, legalize, place
from repro.timing import PreRouteEstimator, build_timing_graph, run_sta


@pytest.fixture(scope="module")
def optimized():
    spec = DESIGN_PRESETS["steelcore"].scaled(0.5)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    pl = place(nl, die)
    legalize(nl, pl)
    g = build_timing_graph(nl)
    unconstrained = run_sta(g, PreRouteEstimator(nl, pl), clock_period=1.0)
    period = spec.clock_frac * unconstrained.max_arrival
    opt_nl = nl.clone()
    opt_pl = Placement(die=die, cell_xy=dict(pl.cell_xy))
    report = optimize(opt_nl, opt_pl, period)
    return nl, pl, opt_nl, opt_pl, report, period


def test_optimizer_improves_timing(optimized):
    _, _, _, _, report, _ = optimized
    assert report.wns_trajectory[-1] > report.wns_trajectory[0]
    assert report.tns_trajectory[-1] > report.tns_trajectory[0]


def test_optimizer_replaces_edges(optimized):
    _, _, _, _, report, _ = optimized
    assert 0.02 < report.net_replaced_ratio < 0.8
    assert 0.01 < report.cell_replaced_ratio < 0.6
    # Nets are replaced more than cells (paper Table I shape).
    assert report.net_replaced_ratio > report.cell_replaced_ratio


def test_optimizer_output_is_valid_netlist(optimized):
    _, _, opt_nl, opt_pl, _, _ = optimized
    opt_nl.check()
    build_timing_graph(opt_nl)  # still acyclic
    assert set(opt_pl.cell_xy) == set(opt_nl.cells)


def test_endpoints_never_replaced(optimized):
    nl, _, opt_nl, _, _, _ = optimized
    assert set(nl.endpoint_pins()) == set(opt_nl.endpoint_pins())


def test_original_netlist_untouched(optimized):
    nl, pl, opt_nl, _, _, _ = optimized
    assert len(nl.cells) != len(opt_nl.cells) or \
        sorted(c.type_name for c in nl.cells.values()) != \
        sorted(c.type_name for c in opt_nl.cells.values())
    nl.check()


def test_moves_recorded(optimized):
    _, _, _, _, report, _ = optimized
    assert sum(report.moves.values()) > 0
    assert set(report.moves) <= {"upsize", "downsize", "remap", "rewrite",
                                 "buffer", "shield", "decompose", "clone"}


def test_optimizer_deterministic():
    spec = DESIGN_PRESETS["xgate"].scaled(0.3)
    results = []
    for _ in range(2):
        nl = generate_netlist(spec)
        die = build_die(nl, spec)
        pl = place(nl, die)
        legalize(nl, pl)
        g = build_timing_graph(nl)
        period = 0.7 * run_sta(g, PreRouteEstimator(nl, pl), 1.0).max_arrival
        report = optimize(nl, pl, period)
        results.append((report.moves, report.wns_trajectory))
    assert results[0] == results[1]


def test_space_gate_blocks_in_full_layout():
    spec = DESIGN_PRESETS["xgate"].scaled(0.3)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    pl = place(nl, die)
    legalize(nl, pl)
    opt = TimingOptimizer(nl, pl, OptimizerConfig())
    # Saturate the free-space map: every structural move must be gated off.
    opt._free[:, :] = 0.0
    assert not opt._gate(die.width / 2, die.height / 2)


def test_wire_delay_is_zero_once_the_arc_driver_changed():
    """The repair pass reads wire delays from the pass's STA arrays.  An
    arc whose sink an earlier move in the same pass re-drove (here: a
    buffer inserted in front of it) or whose sink is new has no delay in
    that STA and reads 0.0 — exactly what the old pin-pair dict lookup
    returned on a miss."""
    from repro.opt.moves import insert_buffer
    from repro.opt.optimizer import _wire_delay
    from repro.placement import RowGrid

    spec = DESIGN_PRESETS["xgate"].scaled(0.25)
    nl = generate_netlist(spec)
    pl = place(nl, build_die(nl, spec))
    legalize(nl, pl)
    sta = run_sta(build_timing_graph(nl), PreRouteEstimator(nl, pl), 500.0)
    net = max(nl.nets.values(), key=lambda n: len(n.sinks))
    old_driver, sink = net.driver, net.sinks[0]
    before = sta.net_edge_delay[(old_driver, sink)]
    assert _wire_delay(sta, old_driver, sink) == before > 0.0

    buf = insert_buffer(nl, pl, RowGrid.from_placement(nl, pl), net.nid,
                        [sink])
    assert buf is not None
    new_driver = nl.nets[nl.pins[sink].net].driver
    assert new_driver == nl.cells[buf].output_pin
    assert _wire_delay(sta, new_driver, sink) == 0.0
    buf_in = nl.cells[buf].input_pins[0]
    assert _wire_delay(sta, old_driver, buf_in) == 0.0   # new pin
    # Every current arc agrees with the old dict rule.
    for drv, snk in nl.net_edges():
        assert _wire_delay(sta, drv, snk) == sta.net_edge_delay.get(
            (drv, snk), 0.0)
