"""Tests for floorplanning."""

import pytest

from repro.netlist import DESIGN_PRESETS, generate_preset
from repro.placement import ROW_HEIGHT, Rect, build_die


def test_rect_geometry():
    r = Rect(1.0, 2.0, 4.0, 6.0)
    assert r.width == 3.0
    assert r.height == 4.0
    assert r.area == 12.0
    assert r.center == (2.5, 4.0)
    assert r.contains(2.0, 3.0)
    assert not r.contains(0.0, 0.0)


def test_rect_overlap():
    a = Rect(0, 0, 2, 2)
    assert a.overlaps(Rect(1, 1, 3, 3))
    assert not a.overlaps(Rect(2, 0, 4, 2))  # share an edge only
    assert not a.overlaps(Rect(5, 5, 6, 6))


def test_die_sized_for_utilization():
    spec = DESIGN_PRESETS["xgate"].scaled(0.3)
    nl = generate_preset("xgate", scale=0.3)
    die = build_die(nl, spec)
    macro_area = sum(m.area for m in die.macros)
    placeable = die.width * die.height - macro_area
    util = nl.total_cell_area() / placeable
    assert 0.9 * spec.utilization <= util <= 1.1 * spec.utilization


def test_die_rows_align():
    spec = DESIGN_PRESETS["xgate"].scaled(0.3)
    nl = generate_preset("xgate", scale=0.3)
    die = build_die(nl, spec)
    assert die.n_rows == int(die.height / ROW_HEIGHT)
    assert die.height % ROW_HEIGHT == pytest.approx(0.0)


def test_macros_inside_die_and_disjoint():
    spec = DESIGN_PRESETS["rocket"].scaled(0.2)
    nl = generate_preset("rocket", scale=0.2)
    die = build_die(nl, spec)
    assert len(die.macros) == len(spec.macros)
    for m in die.macros:
        assert 0 <= m.x0 < m.x1 <= die.width + 1e-9
        assert 0 <= m.y0 < m.y1 <= die.height + 1e-9
    for i, a in enumerate(die.macros):
        for b in die.macros[i + 1:]:
            assert not a.overlaps(b)


def test_ports_on_periphery():
    spec = DESIGN_PRESETS["xgate"].scaled(0.3)
    nl = generate_preset("xgate", scale=0.3)
    die = build_die(nl, spec)
    assert len(die.port_positions) == len(nl.ports)
    for x, y in die.port_positions.values():
        on_edge = (x in (0.0, die.width)) or (y in (0.0, die.height)) \
            or x == pytest.approx(0.0) or y == pytest.approx(0.0) \
            or x == pytest.approx(die.width) or y == pytest.approx(die.height)
        assert on_edge


def test_in_macro_and_clamp():
    spec = DESIGN_PRESETS["rocket"].scaled(0.2)
    nl = generate_preset("rocket", scale=0.2)
    die = build_die(nl, spec)
    m = die.macros[0]
    cx, cy = m.center
    assert die.in_macro(cx, cy)
    x, y = die.clamp(-5.0, die.height + 10.0)
    assert 0 < x < die.width and 0 < y < die.height


@pytest.mark.parametrize("margin", [0.5, 0.0, 3.25])
def test_clamp_matches_np_clip_for_finite_and_infinite_input(margin):
    """``Die.clamp`` uses builtin min/max; pin it to the scalar
    ``np.clip`` it replaced, bit for bit, including ±inf and a die
    narrower than twice the margin."""
    import numpy as np

    from repro.placement import Die

    values = [-np.inf, -1e300, -7.0, -0.0, 0.0, 1e-300, 0.25, 0.5, 0.75,
              3.0, 9.5, 10.0, 10.5, 19.999999999999996, 20.0, 1e300,
              np.inf]
    for die in (Die(width=20.0, height=10.0), Die(width=0.6, height=0.2)):
        for x in values:
            for y in values[::3]:
                got = die.clamp(x, y, margin)
                want = (float(np.clip(x, margin, die.width - margin)),
                        float(np.clip(y, margin, die.height - margin)))
                assert [np.float64(v).tobytes() for v in got] == [
                    np.float64(v).tobytes() for v in want], (x, y)
                assert all(type(v) is float for v in got)
