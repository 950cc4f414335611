"""Observability overhead guard: run_sta with recording disabled.

The ISSUE's acceptance bar: disabled-by-default recording must add < 5%
overhead to ``run_sta`` on the smallest preset.  ``run_sta`` is a thin
instrumented wrapper (span + counters) around ``_run_sta_impl``; timing
both on the same graph measures exactly the instrumentation cost.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -s
"""

from __future__ import annotations

import statistics
import time

from repro.netlist import DESIGN_PRESETS, generate_netlist
from repro.obs.trace import get_tracer
from repro.placement import build_die, legalize, place
from repro.timing import PreRouteEstimator, build_timing_graph
from repro.timing.sta import _run_sta_impl, run_sta

from benchmarks.conftest import emit_bench

REPEATS = 31
CALLS = 20


def _paired_ratio(base, instrumented) -> tuple:
    """``(ratio, base_s, instrumented_s)`` of two zero-argument callables.

    REPEATS rounds each time CALLS invocations of both, back to back,
    alternating which goes first.  ``ratio`` is the median of the
    per-round ``instrumented / base`` ratios: a shared host's speed drifts
    by tens of percent between rounds, and pairing cancels that drift
    where a ratio of two separately taken minima does not.  The seconds
    are each callable's best round, for the report.
    """
    ratios, base_s, instr_s = [], [], []
    for r in range(REPEATS):
        times = {}
        for fn in ((base, instrumented) if r % 2 == 0
                   else (instrumented, base)):
            t0 = time.perf_counter()
            for _ in range(CALLS):
                fn()
            times[fn] = time.perf_counter() - t0
        base_s.append(times[base])
        instr_s.append(times[instrumented])
        ratios.append(times[instrumented] / times[base])
    return statistics.median(ratios), min(base_s), min(instr_s)


def test_disabled_recording_overhead_under_5_percent():
    spec = DESIGN_PRESETS["xgate"].scaled(0.25)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    pl = place(nl, die)
    legalize(nl, pl)
    graph = build_timing_graph(nl)
    wires = PreRouteEstimator(nl, pl)

    # The guard measures the DISABLED path, whatever the harness set up
    # (benchmarks/conftest.py records spans for the whole session).
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.disable()
    try:
        # Warm both paths (NLDM cache, numpy allocations).
        run_sta(graph, wires, 500.0)
        _run_sta_impl(graph, wires, 500.0)

        ratio, base, instrumented = _paired_ratio(
            lambda: _run_sta_impl(graph, wires, 500.0),
            lambda: run_sta(graph, wires, 500.0))
    finally:
        if was_enabled:
            tracer.enable()
    overhead = ratio - 1.0
    emit_bench("obs_overhead", {
        "overhead_pct": overhead * 100,
        "baseline_ms_per_call": base / CALLS * 1e3,
        "instrumented_ms_per_call": instrumented / CALLS * 1e3})
    print(f"\nrun_sta disabled-recording overhead: {overhead:+.2%} "
          f"(baseline {base / CALLS * 1e3:.2f} ms/call, "
          f"instrumented {instrumented / CALLS * 1e3:.2f} ms/call)")
    assert overhead < 0.05, (
        f"disabled observability costs {overhead:.1%} on run_sta "
        f"(budget: 5%)")
