"""Stage mechanics: key chaining, the artifact store, and reuse."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.flow import FlowConfig, StagedFlow, StageStore, stage_fingerprint
from repro.flow.stages import run_staged_flow
from repro.netlist import DESIGN_PRESETS


def _spec(**overrides):
    return dataclasses.replace(DESIGN_PRESETS["xgate"].scaled(0.25),
                               **overrides)


def _keys(config=None, **spec_overrides):
    return StagedFlow(_spec(**spec_overrides),
                      config or FlowConfig(scale=0.25)).stage_keys()


# ----------------------------------------------------------------------
# Key chaining: fingerprints track actual data dependence
# ----------------------------------------------------------------------
def test_fingerprint_is_deterministic_and_chained():
    a = stage_fingerprint("place", "p0", {"bins": 32})
    assert a == stage_fingerprint("place", "p0", {"bins": 32})
    assert len(a) == 16 and int(a, 16) >= 0
    # Any of (stage, parent, payload) changing changes the key.
    assert a != stage_fingerprint("route", "p0", {"bins": 32})
    assert a != stage_fingerprint("place", "p1", {"bins": 32})
    assert a != stage_fingerprint("place", "p0", {"bins": 64})


def test_clock_frac_forks_at_constrain():
    base, swept = _keys(), _keys(clock_frac=0.6)
    # Everything the clock cannot shape is shared...
    for stage in ("generate", "place", "constrain.unconstrained"):
        assert base[stage] == swept[stage]
    # ...and everything downstream of the constraint forks.
    for stage in ("constrain", "opt", "route", "signoff@base"):
        assert base[stage] != swept[stage]


def test_no_opt_sweep_shares_routing():
    cfg = FlowConfig(scale=0.25, with_opt=False)
    base = _keys(config=cfg)
    swept = _keys(config=cfg, clock_frac=0.6)
    # The no-opt "opt" stage is a pure clone: clock-independent, so a
    # sweep shares it and the routing, re-running only the STAs.
    assert base["opt"] == swept["opt"]
    assert base["route"] == swept["route"]
    assert base["constrain"] != swept["constrain"]
    assert base["signoff@base"] != swept["signoff@base"]


def test_base_seed_forks_at_generate():
    base = _keys()
    reseeded = _keys(config=FlowConfig(scale=0.25, base_seed=7))
    assert all(base[s] != reseeded[s] for s in base)


def test_corners_fork_only_signoff():
    base = _keys()
    mmmc = _keys(config=FlowConfig(scale=0.25,
                                   corners=("base", "fast", "slow")))
    for stage in ("generate", "place", "constrain", "opt", "route",
                  "signoff@base"):
        assert base[stage] == mmmc[stage]
    assert {"signoff@fast", "signoff@slow"} <= set(mmmc)


def test_run_populates_last_with_matching_keys():
    spec = _spec()
    flow = StagedFlow(spec, FlowConfig(scale=0.25))
    flow.run()
    keys = flow.stage_keys()
    for stage in ("generate", "place", "constrain", "opt", "route"):
        assert flow.last[stage].key == keys[stage]
    assert flow.last["signoff"]["base"].key == keys["signoff@base"]


# ----------------------------------------------------------------------
# StageStore: reuse arithmetic, disk layer, corruption tolerance
# ----------------------------------------------------------------------
def test_memory_store_reuse_counts():
    spec, cfg = _spec(), FlowConfig(scale=0.25)
    store = StageStore()
    first = run_staged_flow(spec, cfg, store=store)
    assert store.stats() == {"hits": 0, "disk_hits": 0,
                             "misses": 7, "entries": 7}
    second = run_staged_flow(spec, cfg, store=store)
    # A full re-run hits every stage (the constrain hit short-circuits
    # the unconstrained lookup, hence 6 rather than 7).
    assert store.hits == 6 and store.misses == 7
    # Reused artifacts are shared by reference, not copied.
    assert second.input_netlist is first.input_netlist
    assert second.signoff_sta is first.signoff_sta


def test_sweep_reuses_upstream_stages():
    cfg = FlowConfig(scale=0.25)
    store = StageStore()
    run_staged_flow(_spec(), cfg, store=store)
    run_staged_flow(_spec(clock_frac=0.6), cfg, store=store)
    # The sweep point re-derives constrain/opt/route/signoff (4 new
    # entries) but reuses generate + place + the unconstrained STA.
    assert store.hits == 3
    assert store.stats()["entries"] == 11


def test_disk_store_resumes_across_processes(tmp_path):
    spec, cfg = _spec(), FlowConfig(scale=0.25)
    first = run_staged_flow(spec, cfg, store=StageStore(tmp_path))
    assert list(tmp_path.glob("stage_*.pkl"))
    # A fresh store (fresh "process") resumes wholly from disk.
    store = StageStore(tmp_path)
    resumed = run_staged_flow(spec, cfg, store=store)
    assert store.misses == 0 and store.disk_hits == 6
    np.testing.assert_array_equal(resumed.signoff_sta.arrival,
                                  first.signoff_sta.arrival)


def test_corrupt_disk_artifact_is_a_miss(tmp_path):
    spec, cfg = _spec(), FlowConfig(scale=0.25)
    run_staged_flow(spec, cfg, store=StageStore(tmp_path))
    for p in tmp_path.glob("stage_*.pkl"):
        p.write_bytes(p.read_bytes()[:20])      # truncate: unpickle fails
    store = StageStore(tmp_path)
    flow = run_staged_flow(spec, cfg, store=store)
    assert store.disk_hits == 0 and store.misses == 7
    assert flow.signoff_sta.wns == flow.signoff_sta.wns  # rebuilt fine


def test_key_mismatch_is_discarded(tmp_path):
    store = StageStore(tmp_path)
    flow = StagedFlow(_spec(), FlowConfig(scale=0.25), store=store)
    gen = flow.generate()
    # File an artifact under a key it does not carry (e.g. a file copied
    # between stores): the read must warn, unlink, and miss.
    bogus = tmp_path / "stage_deadbeefdeadbeef.pkl"
    bogus.write_bytes(pickle.dumps(gen))
    fresh = StageStore(tmp_path)
    assert fresh.get("deadbeefdeadbeef") is None
    assert not bogus.exists()
    assert fresh.misses == 1


def _old_shape(sta):
    """*sta* as the pre-kernel code pickled it: pin-pair edge-delay dicts
    in the instance dict, no ``wire_delay`` / ``cell_delay`` arrays."""
    from repro.timing import STAResult

    old = object.__new__(STAResult)
    fields = ("graph", "clock_period", "arrival", "slew", "required",
              "load", "best_pred", "endpoint_arrival", "endpoint_slack")
    old.__dict__.update({f: getattr(sta, f) for f in fields},
                        net_edge_delay=dict(sta.net_edge_delay),
                        cell_edge_delay=dict(sta.cell_edge_delay))
    return old


def test_old_shape_artifact_is_a_warn_and_rebuild_miss(tmp_path, caplog):
    """A store directory written by older code holds bare (unversioned)
    artifacts whose ``STAResult`` has another shape.  Reading one must
    warn, drop the file and rebuild — not return an object that fails
    later for want of its per-edge delay arrays."""
    spec, cfg = _spec(), FlowConfig(scale=0.25)
    staged = StagedFlow(spec, cfg)
    staged.run()
    constrain = staged.last["constrain"]
    sta = constrain.pre_route_sta
    stale = dataclasses.replace(constrain, pre_route_sta=_old_shape(sta))
    path = tmp_path / f"stage_{constrain.key}.pkl"
    path.write_bytes(pickle.dumps(stale))     # the old, bare layout
    # Unpickled as is, it lacks the per-edge arrays the kernel reads.
    assert pickle.loads(path.read_bytes()).pre_route_sta.wire_delay is None

    store = StageStore(tmp_path)
    with caplog.at_level("WARNING", logger="repro.flow.store"):
        flow = run_staged_flow(spec, cfg, store=store)
    assert "layout" in caplog.text
    assert store.disk_hits == 0
    got = flow.pre_route_sta
    np.testing.assert_array_equal(got.arrival, sta.arrival)
    np.testing.assert_array_equal(got.wire_delay, sta.wire_delay)
    assert got.net_edge_delay == sta.net_edge_delay
    # The rebuilt artifact replaced the stale file and now resumes.
    again = StageStore(tmp_path)
    run_staged_flow(spec, cfg, store=again)
    assert again.misses == 0


def test_put_rejects_mismatched_key(tmp_path):
    store = StageStore()
    flow = StagedFlow(_spec(), FlowConfig(scale=0.25), store=store)
    gen = flow.generate()
    with pytest.raises(ValueError):
        store.put("0000000000000000", gen)


def test_reuse_folds_duration_into_timer():
    spec, cfg = _spec(), FlowConfig(scale=0.25)
    store = StageStore()
    run_staged_flow(spec, cfg, store=store)
    flow = StagedFlow(spec, cfg, store=store)
    result = flow.run()
    # Every timed stage was reused, yet the timer still carries the
    # stages' recorded production cost (Table III stays meaningful).
    assert set(result.timer.stages) == {"place", "opt", "route", "sta"}
    assert all(v > 0.0 for v in result.timer.stages.values())
