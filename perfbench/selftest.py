"""Self-test of the benchmark, at minimum problem sizes.

    python3 perfbench/selftest.py

1. Runs ``run.py --minimum`` twice, untraced on one workload and traced
   on the other, and asserts that every end-to-end and per-layer metric
   of ``BENCHMARK.json`` is printed exactly once with its unit, and that
   the last line is the JSON result with exactly the contract's keys.
2. Builds a minimum offline pass, what-if pass and fleet run in this
   process and asserts that every output check passes on the real
   results and fails when handed a corrupted copy.

Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)")


def run_minimum(workload: str, trace: int) -> str:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--minimum"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, (f"{cmd} exited {out.returncode}:\n"
                                 f"{out.stdout[-3000:]}{out.stderr[-3000:]}")
    return out.stdout


def check_names(stdout: str, wanted, trace: int) -> None:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    printed = [METRIC_LINE.match(x).groups() for x in lines
               if METRIC_LINE.match(x)]
    names = [p[0] for p in printed]
    for m in wanted:
        assert names.count(m["name"]) == 1, \
            f"{m['name']} printed {names.count(m['name'])} times"
        unit = next(p[2] for p in printed if p[0] == m["name"])
        assert unit == m["unit"], f"{m['name']}: unit {unit} != {m['unit']}"
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        f"trace={trace}: JSON metrics differ from BENCHMARK.json"


def must_fail(errors, what: str) -> None:
    assert errors, f"check did not catch a corrupted {what}"


def check_detection() -> None:
    sys.path.insert(0, str(HERE))
    import fleet
    import offline
    import whatif
    from common import WORKLOADS, Run, Sizes
    from run import load_repro

    load_repro(ROOT)
    work = HERE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload=WORKLOADS["global"], seed=7, seconds=1.0,
              trace=False, work=work, root=ROOT, sizes=Sizes.minimum())
    try:
        _offline(run, offline)
        served, p, ops = _whatif(run, whatif)
        _fleet(run, served, ops, fleet)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert not run.check_failures, run.check_failures


def _offline(run, offline) -> None:
    from repro.flow import ScenarioSpec, run_flow_on_spec
    from repro.netlist import DESIGN_PRESETS, PAPER_DESIGNS

    p = offline.new_pass(run, "selftest")
    offline.cold_round(run, p, PAPER_DESIGNS)
    offline.sweep_round(run, p)
    offline.train_round(run, p, run.sizes.epochs)
    offline.warm_round(run, p, 1)
    offline.infer_round(run, p, 1)
    offline.check_all(run, p)

    warm = copy.deepcopy(p.warm)
    warm[3].x_cell[0, 0] += 1e-12
    must_fail(offline.compare_samples(p.cold, warm), "warm sample")
    warm = copy.deepcopy(p.warm)
    warm[0].signoff_arrival_by_pin[next(iter(
        warm[0].signoff_arrival_by_pin))] += 1.0
    must_fail(offline.compare_samples(p.cold, warm), "warm label dict")
    must_fail(offline.compare_samples(p.cold, p.warm[:-1]), "sample list")

    scen = p.scenarios[0]
    spec = ScenarioSpec(axes=scen.axes).apply(
        DESIGN_PRESETS[run.sizes.sweep_design].scaled(
            run.sizes.offline_scale))
    flow = run_flow_on_spec(spec, offline.flow_config(run))
    assert not offline.check_sweep_point(p.sweep[0], flow)
    bad = copy.deepcopy(p.sweep[0])
    bad.y[0] += 1e-9
    must_fail(offline.check_sweep_point(bad, flow), "sweep label")
    must_fail(offline.check_sweep_point(p.sweep[1], flow),
              "sweep point (other clock)")

    packed = [a.copy() for a in p.packed]
    packed[-1][0] *= 1 + 1e-6
    singles = [p.predictor.predict_array(s) for s in p.test]
    must_fail(offline.check_close(packed, singles, 1e-9), "packed output")
    must_fail(offline.check_losses([1.0, float("nan")], 2), "loss")
    must_fail(offline.check_losses([1.0], 2), "loss history")


def _whatif(run, whatif):
    served, _ = whatif.set_up(run)
    ops = whatif.edit_stream(run, served, 24, run.sizes.commit_share)
    keep = {i for i, op in enumerate(ops) if not op.commit}
    p = whatif.WhatifPass()
    whatif.run_slice(run, p, served.sessions, ops, range(len(ops)), keep)
    whatif.check_all(run, served, p)
    assert p.samples and any(n for n, _, _ in p.samples), \
        "no kept preview follows a commit"

    n, op, preview = p.samples[-1]
    bad = dict(preview)
    pin = next(iter(bad))
    bad[pin] += 1e-9
    must_fail(whatif.check_fresh_commits(run, served, [(n, op, bad)],
                                         p.committed), "preview")
    if n:
        must_fail(whatif.check_fresh_commits(
            run, served, [(n - 1, op, preview)], p.committed),
            "commit history")
    final = copy.deepcopy(p.final)
    final[op.design][pin] -= 1.0
    must_fail(whatif.check_recomputed(served.sessions, final), "baseline")
    must_fail(whatif.predict_drift(served.sessions[op.design],
                                   final[op.design], "selftest"),
              "predict() answer")
    whatif.close_all(served.sessions)
    return served, p, ops


def _fleet(run, served, ops, fleet) -> None:
    fp = fleet.start(run, served, "selftest", tracing=False)
    phases = fleet.make_phases(run, ops)
    try:
        fleet.warm_up(fp, ops)
        for phase in phases:
            fleet.run_slice(run, fp, phase, len(phase.reqs))
    finally:
        fleet.stop(fp, phases)
    fleet.check_all(run, served, phases)
    reqs = [r for ph in phases for r in ph.reqs]
    for path in ("/predict", "/whatif"):
        r = next(r for r in reqs if r.path == path)
        assert not fleet.parse_body(r.path, r.payload)
        assert not fleet.check_in_process(run, served, [r])
        body = json.loads(r.payload)
        body["predictions"][next(iter(body["predictions"]))] += 1e-6
        bad = copy.copy(r)
        bad.payload = json.dumps(body).encode()
        must_fail(fleet.check_in_process(run, served, [bad]),
                  f"{path} prediction")
        body = json.loads(r.payload)
        del body["revision"]
        must_fail(fleet.parse_body(r.path, json.dumps(body).encode()),
                  f"{path} body")
        body = json.loads(r.payload)
        body["surprise"] = 1
        must_fail(fleet.parse_body(r.path, json.dumps(body).encode()),
                  f"{path} body shape")
        refused = copy.copy(r)
        refused.status = 503
        must_fail(fleet.check_bodies([refused]), "refusal")

    late = copy.deepcopy(phases[0])
    for r in late.reqs:
        r.sent = r.due + (r.done - r.due)
    try:
        fleet.check_generator([late], 0.25)
    except fleet.InvalidRun:
        pass
    else:
        raise AssertionError("a late generator was not marked invalid")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_names(run_minimum("local", 0), spec["end_to_end"], 0)
    traced = run_minimum("global", 1)
    check_names(traced, spec["per_layer"], 1)
    # The traced run also prints the end-to-end metrics of its untraced
    # passes, each once.
    names = [METRIC_LINE.match(x).group(1) for x in traced.splitlines()
             if METRIC_LINE.match(x)]
    for m in spec["end_to_end"]:
        assert names.count(m["name"]) == 1, m["name"]
    check_detection()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    np.seterr(all="ignore")
    sys.exit(main())
