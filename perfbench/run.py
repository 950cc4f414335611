"""The repository benchmark: offline pipeline, what-if sessions, fleet.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload local --seed 1 --seconds 16 --trace 0

Every run imports the program from the checkout's ``src/`` and runs three
sections, interleaved round by round, each checked for correct outputs:

* **offline** — a researcher's paper pipeline, serially: cold dataset
  build of the ten paper presets, a ``clock_frac`` sweep, warm rebuilds,
  training and packed held-out inference.  The flow layers do almost
  all of this work and none of the serving work.
* **whatif** — one closed-loop client against resident design sessions:
  incremental STA, featurization and the model forward do all the work.
* **fleet** — the same preview edits and ``/predict`` over HTTP to the
  multi-process fleet, open loop at a fixed rate (a second, higher rate
  in the traced run): transport does nearly all of a ``/predict`` and a
  small part of a what-if.

The workload (see ``BENCHMARK.json``) shapes the seeded edit stream.
``--trace 0`` measures with tracing off and ends with the end-to-end
metrics; ``--trace 1`` runs each section's measured region untraced and
then traced, and ends with the per-layer metrics.  Every metric is also
printed as a ``metric <name> <value> <unit>`` line.  The last line of
standard output is the JSON result; the exit code is 0 only when every
operation and output check succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from common import (WORKLOADS, Run, Sizes, emit_result, fingerprint, median,
                    peak_rss_mb)

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--minimum", action="store_true",
                    help="minimum problem sizes (the self-test's mode)")
    return ap.parse_args(argv)


def load_repro(root: Path) -> None:
    """Import ``repro`` from the checkout's sources, and only from there."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not {src}")


def benchmark_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def assert_untraced() -> None:
    """Tracing must be off while end-to-end metrics are taken; the fleet
    server gets an environment without ``REPRO_TRACE`` and is started
    with tracing off for the untraced passes (see :func:`fleet.start`)."""
    from repro.obs import get_tracer

    if os.environ.get("REPRO_TRACE", "") not in ("", "0"):
        raise SystemExit("perfbench: REPRO_TRACE is set; unset it for "
                         "an untraced run")
    if get_tracer().enabled:
        raise SystemExit("perfbench: the repro tracer is enabled")
    if "conftest" in sys.modules or "benchmarks.conftest" in sys.modules:
        raise SystemExit("perfbench: a pytest conftest is loaded")


def _part(n: int, r: int, rounds: int) -> int:
    """Round *r*'s share of *n* items split evenly over *rounds*."""
    return n * (r + 1) // rounds - n * r // rounds


def _span(n: int, r: int, rounds: int) -> range:
    """Round *r*'s indices of *n* items split evenly over *rounds*."""
    return range(n * r // rounds, n * (r + 1) // rounds)


def execute(run: Run, spec: dict) -> None:
    """All three sections; records metrics and checks on *run*.

    The measurements are split into rounds that alternate, so each
    metric samples much of the run rather than one stretch of it: on
    small shared machines the host's speed drifts by tens of percent
    from one ten-second window to the next.  The first half of the
    rounds builds the cold dataset, a design per round; the second half
    trains an epoch per round and does warm rebuilds and packed
    inferences, which need the whole cold build.  The sweeps are spread
    evenly over all rounds, every round runs a slice of the what-if
    stream, and every other round a slice of each fleet phase.

    The ``high`` fleet phase runs in the traced run only: near capacity,
    its latency swings with the host's speed far more than any bound a
    regression gate could hold, so it is a per-layer row.
    """
    import fleet
    import offline
    import whatif
    from repro.flow import run_flow
    from repro.netlist import PAPER_DESIGNS

    sizes = run.sizes
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # Process warm-up (library characterization, first numpy calls) so
    # the cold build measures the build, not interpreter start-up.
    t0 = time.perf_counter()
    run_flow("xgate", offline.flow_config(run))
    warmup_s = time.perf_counter() - t0

    served, setups = whatif.set_up(run)
    n_ops = max(int(round(sizes.whatif_ops_per_s * run.seconds)), 10)
    ops = whatif.edit_stream(run, served, n_ops, sizes.commit_share)
    previews = [i for i, op in enumerate(ops) if not op.commit]
    keep = set(run.rng("whatif-checks").permutation(previews)
               [:sizes.whatif_checks].tolist())
    rounds, half = sizes.rounds, sizes.rounds // 2
    t0 = time.perf_counter()
    fp = fleet.start(run, served, "untraced", tracing=False)
    phases = fleet.make_phases(run, ops, high=run.trace)
    try:
        fleet.warm_up(fp, ops)
        fleet_start_s = time.perf_counter() - t0
        off = offline.new_pass(run, "untraced")
        wp = whatif.WhatifPass()
        for r in range(rounds):
            if r < half:
                lo = len(PAPER_DESIGNS) * r // half
                offline.cold_round(run, off, PAPER_DESIGNS[
                    lo:lo + _part(len(PAPER_DESIGNS), r, half)])
            else:
                # Mirrored, so that the first of these rounds trains
                # before the first inference.
                offline.train_round(run, off, _part(sizes.epochs,
                                                    rounds - 1 - r, half))
                offline.warm_round(run, off, _part(sizes.warm_repeats,
                                                   r - half, half))
                offline.infer_round(run, off, _part(sizes.infer_repeats,
                                                    r - half, half))
            for _ in range(_part(sizes.sweeps, r, rounds)):
                offline.sweep_round(run, off)
            whatif.run_slice(run, wp, served.sessions, ops,
                             _span(len(ops), r, rounds), keep)
            if r % 2 == 0:
                for phase in phases:
                    fleet.run_slice(run, fp, phase, _part(
                        len(phase.reqs), r // 2, (rounds + 1) // 2))
        if run.trace:
            trace_layers(run, served, ops, fp)
    finally:
        fleet.stop(fp, phases)
    fleet.check_generator(phases, bounds["fleet_low_p50_ms"])
    offline.report(run, off)
    whatif.report(run, wp)
    fleet.report(run, phases)
    offline.check_all(run, off)
    whatif.check_all(run, served, wp)
    whatif.close_all(served.sessions)
    fleet.check_all(run, served, phases)

    setup_s = warmup_s + median(setups) + fleet_start_s
    run.metric("setup_s", setup_s, "s",
               f"warm-up {warmup_s:.3f} + median of {len(setups)} serving "
               f"set-ups {median(setups):.3f} + fleet start "
               f"{fleet_start_s:.3f}")
    run.metric("peak_rss_mb", peak_rss_mb(), "MiB",
               "this process plus the largest fleet process")
    run.metric("failed_share", run.failed / max(run.attempted, 1), "share",
               f"{run.failed} of {run.attempted} operations")


def trace_layers(run: Run, served, ops, fp) -> None:
    """The traced run's per-layer rows.

    Offline runs once more, back to back, with its layers wrapped from
    outside (the program's tracer stays off).  What-if and fleet run
    once untraced and once with the program's own tracing on, on fresh
    sessions and a second, traced fleet, alternating round by round so
    that ``obs.overhead_share`` compares like with like.
    """
    import fleet
    import offline
    import whatif
    from layers import LayerClock

    sizes = run.sizes
    offline.report_layers(run, offline.run_pass(run, "traced",
                                                LayerClock()))
    plain = {d: whatif.open_session(run, served, d) for d in served.pristine}
    traced = {d: whatif.open_session(run, served, d)
              for d in served.pristine}
    wp_plain, wp_traced = whatif.WhatifPass(), whatif.WhatifPass()
    # Half of the edit stream and short fleet phases keep the traced run
    # well inside its time limit; both sides send the same requests.
    half_ops = ops[:len(ops) // 2]
    ph_plain = fleet.make_phases(run, ops, share=0.3)
    ph_traced = fleet.make_phases(run, ops, share=0.3)
    rounds = sizes.rounds
    ft = fleet.start(run, served, "traced", tracing=True)
    try:
        fleet.warm_up(ft, ops)
        for r in range(rounds):
            # The side that runs second in a round finds warmer caches,
            # so the order alternates.
            part = _span(len(half_ops), r, rounds)
            sides = [(wp_plain, plain, False), (wp_traced, traced, True)]
            for p, sessions, tr in (sides if r % 2 == 0 else sides[::-1]):
                whatif.run_slice(run, p, sessions, half_ops, part,
                                 traced=tr)
            if r % 2 == 0:
                for a, b in zip(ph_plain, ph_traced):
                    n = _part(len(a.reqs), r // 2, (rounds + 1) // 2)
                    pairs = [(fp, a), (ft, b)]
                    for f, phase in (pairs if r % 4 == 0 else pairs[::-1]):
                        fleet.run_slice(run, f, phase, n)
    finally:
        for phase in ph_plain:
            phase.close()
        fleet.stop(ft, ph_traced)
        whatif.close_all(plain)
        whatif.close_all(traced)
    whatif.report_layers(run, wp_traced)
    fleet.report_layers(run, ft, ph_traced)
    base = [wp_plain.wall_s, fleet.latency_total_s(ph_plain)]
    over = [wp_traced.wall_s, fleet.latency_total_s(ph_traced)]
    for name, b, t in zip(("whatif", "fleet"), base, over):
        print(f"overhead {name}: traced {t:.3f} s vs untraced {b:.3f} s "
              f"({(t - b) / b:+.1%})", flush=True)
    run.metric("obs.overhead_share", (sum(over) - sum(base)) / sum(base),
               "share", "what-if loop time + fleet summed latency, traced "
                        "vs untraced rounds")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_repro(ROOT)
    spec = benchmark_spec(ROOT)
    # The traced run measures untraced passes too (for obs.overhead_share).
    assert_untraced()
    import fleet

    work = ROOT / "perfbench" / "work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload=WORKLOADS[args.workload], seed=args.seed,
              seconds=args.seconds, trace=bool(args.trace), work=work,
              root=ROOT, sizes=Sizes.minimum() if args.minimum else Sizes())
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    print("fingerprint " + json.dumps(fingerprint(ROOT)), flush=True)
    try:
        execute(run, spec)
    except fleet.InvalidRun as exc:
        print(f"INVALID run, no result: {exc}", flush=True)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    keep = [m["name"] for m in
            spec["per_layer" if args.trace else "end_to_end"]]
    emit_result(run, keep)
    return 0 if run.failed == 0 and not run.check_failures else 1


if __name__ == "__main__":
    sys.exit(main())
