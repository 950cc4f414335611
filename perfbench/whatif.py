"""What-if section: one closed-loop client against resident sessions.

Set-up runs the reference flow for each served design, bootstrap-trains
a predictor on them (as ``repro serve`` does without ``--model``) and
opens one ``DesignSession`` per design.  The measured loop then sends
the seeded edit stream: a fixed share of edits are commits (writes), the
rest previews (reads: apply, re-predict, revert).  No flow runs after
set-up and no transport is involved, so incremental STA, incremental
featurization and the model forward do all the work.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import Run, exact_counts, median, tail
from layers import span_self_times

BOOTSTRAP_EPOCHS = 2


@dataclass
class Op:
    """One request of the edit stream (shared with the fleet section)."""

    design: str
    edit: Dict[str, object]      # wire form, as the HTTP API takes it
    commit: bool = False


@dataclass
class Served:
    """The serving state built by set-up."""

    pristine: Dict[str, bytes]   # design → pickled, never-edited flow
    predictor: object
    sessions: Dict[str, object] = field(default_factory=dict)


def serve_config(run: Run):
    from repro.flow import FlowConfig

    return FlowConfig(base_seed=run.seed, scale=run.sizes.serve_scale)


def set_up(run: Run) -> Tuple[Served, List[float]]:
    """Run the served designs' flows, bootstrap-train a predictor on them
    and open their sessions, several times; returns the last set-up and
    every set-up's duration."""
    from repro.core import ModelConfig, TimingPredictor, TrainerConfig
    from repro.flow import run_flow
    from repro.ml import build_sample

    durations = []
    served = None
    for _ in range(run.sizes.setup_repeats):
        if served is not None:
            close_all(served.sessions)
        t0 = time.perf_counter()
        flows = {d: run_flow(d, serve_config(run))
                 for d in run.sizes.serve_designs}
        pristine = {d: pickle.dumps(f) for d, f in flows.items()}
        predictor = TimingPredictor(
            model_config=ModelConfig(seed=run.seed),
            trainer_config=TrainerConfig(epochs=BOOTSTRAP_EPOCHS,
                                         seed=run.seed))
        predictor.fit([build_sample(f, seed=run.seed)
                       for f in flows.values()])
        served = Served(pristine=pristine, predictor=predictor)
        served.sessions = {d: open_session(run, served, d, flow=f)
                           for d, f in flows.items()}
        durations.append(time.perf_counter() - t0)
    return served, durations


def open_session(run: Run, served: Served, design: str, flow=None):
    from repro.serve import DesignSession

    if flow is None:
        flow = pickle.loads(served.pristine[design])
    return DesignSession(flow, served.predictor, seed=run.seed)


def close_all(sessions: Dict[str, object]) -> None:
    for session in sessions.values():
        session.close()


# ----------------------------------------------------------------------
# The seeded edit stream
# ----------------------------------------------------------------------
def edit_stream(run: Run, served: Served, n: int,
                commit_share: float) -> List[Op]:
    """*n* seeded edits over the served designs.

    The mix is exact, not sampled, so that a median over it does not
    move with the seed: every design gets an equal share of the edits,
    ``commit_share`` of each design's edits are commits, and the edit
    kinds hold the workload's shares among each design's commits and
    among its previews.  The order, the cells and the targets are drawn
    from the seed.
    """
    rng = run.rng("edits")
    wl = run.workload
    designs = sorted(served.pristine)
    flows = {d: pickle.loads(served.pristine[d]) for d in designs}
    cells = {d: sorted(flows[d].input_netlist.cells) for d in designs}
    plan: List[Tuple[str, int, bool]] = []
    for d, n_d in zip(designs, exact_counts(n, [1.0] * len(designs))):
        for commit, n_c in zip((True, False), exact_counts(
                n_d, [commit_share, 1.0 - commit_share])):
            kinds = exact_counts(n_c, [wl.nudge, wl.far, wl.resize])
            plan += [(d, kind, commit)
                     for kind, count in enumerate(kinds)
                     for _ in range(count)]
    ops = []
    for j in rng.permutation(len(plan)).tolist():
        d, kind, commit = plan[j]
        flow = flows[d]
        cid = cells[d][int(rng.integers(len(cells[d])))]
        die = flow.input_placement.die
        if kind == 2:
            inst = flow.input_netlist.cells[cid]
            base = inst.type_name.rsplit("_X", 1)[0]
            library = flow.input_netlist.library
            alts = [t.name for t in library.sizes_of(base)
                    if t.name != inst.type_name]
            edit = {"op": "resize", "cell": int(cid),
                    "type": alts[int(rng.integers(len(alts)))]}
        else:
            if kind == 0:
                x, y = flow.input_placement.position(cid)
                x, y = x + rng.normal(0.0, 2.0), y + rng.normal(0.0, 2.0)
            else:
                x, y = rng.uniform(0, die.width), rng.uniform(0, die.height)
            edit = {"op": "move", "cell": int(cid),
                    "x": round(float(x), 3), "y": round(float(y), 3)}
        ops.append(Op(design=d, edit=edit, commit=commit))
    return ops


# ----------------------------------------------------------------------
# The measured loop
# ----------------------------------------------------------------------
@dataclass
class WhatifPass:
    wall_s: float = 0.0
    preview_ms: List[float] = field(default_factory=list)
    commit_ms: List[float] = field(default_factory=list)
    endpoints_changed: List[int] = field(default_factory=list)
    drift: List[str] = field(default_factory=list)
    samples: List[Tuple[int, Op, Dict]] = field(default_factory=list)
    committed: Dict[str, List[Dict]] = field(default_factory=dict)
    final: Dict[str, Dict] = field(default_factory=dict)
    events: List[Dict] = field(default_factory=list)
    start_level: Tuple[float, float] = (0.0, 0.0)


def run_slice(run: Run, p: WhatifPass, sessions: Dict[str, object],
              ops: List[Op], indices: range, keep: Optional[set] = None,
              traced: bool = False) -> None:
    """Send ``ops[indices]`` in order, continuing the closed loop of *p*;
    *keep* names the op indices whose preview results are kept for the
    fresh-session check."""
    from repro.obs import get_metrics, get_tracer
    from repro.serve import Edit

    keep = keep or set()
    if not p.final:
        p.final = {d: s.predict() for d, s in sessions.items()}
        p.committed = {d: [] for d in sessions}
    baseline, history = p.final, p.committed
    tracer = get_tracer()
    level0 = _hist(get_metrics(), "sta.incremental.start_level")
    if traced:
        tracer.reset()
        tracer.enable()
    t_start = time.perf_counter()
    for i in indices:
        op = ops[i]
        session = sessions[op.design]
        edit = Edit.from_dict(op.edit)
        t0 = time.perf_counter()
        result = session.whatif([edit], commit=op.commit)
        dt = (time.perf_counter() - t0) * 1e3
        p.endpoints_changed.append(result["shift"]["endpoints_changed"])
        if op.commit:
            p.commit_ms.append(dt)
            history[op.design].append(op.edit)
            baseline[op.design] = result["predictions"]
        else:
            p.preview_ms.append(dt)
            if i in keep:
                p.samples.append((len(history[op.design]), op,
                                  result["predictions"]))
        p.drift += predict_drift(session, baseline[op.design],
                                 f"op {i} ({op.design})")
    p.wall_s += time.perf_counter() - t_start
    if traced:
        tracer.disable()
        p.events += tracer.events()
        tracer.reset()
    level1 = _hist(get_metrics(), "sta.incremental.start_level")
    p.start_level = (p.start_level[0] + level1[0] - level0[0],
                     p.start_level[1] + level1[1] - level0[1])
    run.ops(len(indices))


def _hist(registry, name: str) -> Tuple[float, float]:
    summary = registry.snapshot().get(name)
    if not isinstance(summary, dict):
        return (0.0, 0.0)
    return (float(summary["count"]), float(summary["total"]))


def report(run: Run, p: WhatifPass) -> None:
    run.metric("whatif_preview_p50_ms", median(p.preview_ms), "ms",
               f"{len(p.preview_ms)} previews")
    q, v = tail(p.preview_ms)
    run.metric("whatif_preview_tail_ms", v, "ms",
               f"p{q:g} of {len(p.preview_ms)} previews")
    run.metric("whatif_commit_p50_ms", median(p.commit_ms), "ms",
               f"{len(p.commit_ms)} commits")


def report_layers(run: Run, p: WhatifPass) -> None:
    """Rows from the program's own spans; per what-if means, so
    ``n * (sta + infer + featurize_other) + other`` is the loop's wall."""
    rows = span_self_times(p.events, "serve.whatif",
                           ("sta.refresh", "model.infer"))
    n = max(len(rows), 1)
    sta = sum(r.get("sta.refresh", 0.0) for r in rows)
    infer = sum(r.get("model.infer", 0.0) for r in rows)
    total = sum(r["dur"] for r in rows)
    run.metric("timing.sta_refresh_ms", sta / n * 1e3, "ms",
               f"{len(rows)} what-ifs")
    run.metric("core.infer_ms", infer / n * 1e3, "ms")
    run.metric("serve.featurize_other_ms", (total - sta - infer) / n * 1e3,
               "ms", "serve.whatif self time: apply, featurize, pack")
    run.metric("whatif.other_s", p.wall_s - total, "s",
               f"traced what-if wall {p.wall_s:.3f} s")
    count, level_total = p.start_level
    run.metric("timing.sta_start_level", level_total / max(count, 1),
               "level", f"mean over {count:.0f} refreshes")
    run.metric("serve.endpoints_changed",
               float(np.mean(p.endpoints_changed)), "count",
               "mean per what-if")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_all(run: Run, served: Served, p: WhatifPass) -> None:
    run.check("whatif.preview_keeps_predict", p.drift)
    run.check("whatif.recomputed_baseline",
              check_recomputed(served.sessions, p.final))
    run.check("whatif.preview_equals_fresh_commit",
              check_fresh_commits(run, served, p.samples, p.committed))


def predict_drift(session, expected: Dict, where: str) -> List[str]:
    """``session.predict()`` still answers the committed state."""
    if session.predict() != expected:
        return [f"{where}: predict() differs from the committed state"]
    return []


def check_recomputed(sessions: Dict[str, object],
                     expected: Dict[str, Dict]) -> List[str]:
    """Recomputed from the sessions' current features, predictions equal
    the committed state: previews left nothing behind."""
    errors = []
    for design, session in sessions.items():
        session.apply([])            # drop the cached baseline, recompute
        errors += predict_drift(session, expected[design], design)
    return errors


def check_fresh_commits(run: Run, served: Served, samples,
                        committed: Dict[str, List[Dict]]) -> List[str]:
    """Each kept preview equals its edit committed on a fresh session."""
    errors = []
    for n_commits, op, preview in samples:
        got = committed_on_fresh(run, served, op,
                                 committed[op.design][:n_commits])
        errors += compare_predictions(
            preview, got, f"{op.design} {op.edit['op']} after "
                          f"{n_commits} commits")
    return errors


def committed_on_fresh(run: Run, served: Served, op: Op,
                       prior: List[Dict]) -> Dict[int, float]:
    """The edit committed on a freshly opened session that first
    replays *prior* commits."""
    from repro.serve import Edit

    session = open_session(run, served, op.design)
    try:
        if prior:
            session.apply([Edit.from_dict(e) for e in prior])
        return session.whatif([Edit.from_dict(op.edit)],
                              commit=True)["predictions"]
    finally:
        session.close()


def compare_predictions(want: Dict, got: Dict, what: str,
                        tol: float = 0.0) -> List[str]:
    """Endpoint-keyed predictions equal (within *tol*, relative)."""
    want = {int(k): float(v) for k, v in want.items()}
    got = {int(k): float(v) for k, v in got.items()}
    if want.keys() != got.keys():
        return [f"{what}: endpoint sets differ"]
    bad = [k for k in want
           if abs(want[k] - got[k]) > tol * max(1.0, abs(want[k]))]
    if bad:
        k = bad[0]
        return [f"{what}: {len(bad)} endpoints differ "
                f"(pin {k}: {got[k]!r} vs {want[k]!r})"]
    return []
