"""Offline section: a researcher's paper pipeline, run serially.

One pass is a cold ``build_dataset`` of the ten paper presets into an
empty cache, a ``clock_frac`` sweep of one design (``scenarios=``, so
one stage store is shared across the points), repeated warm rebuilds
from the cold cache, training on the five train designs and repeated
packed inference on the five held-out designs.  Input sharing runs from
none (cold) through partial (sweep) to total (warm).
"""

from __future__ import annotations

import dataclasses
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from common import Run, median
from layers import LayerClock, bindings_of, delta, patched

#: Layer rows of the offline section: metric name → wrapped callables,
#: given as ``(dotted owner, attribute)`` pairs; ``*`` binds every
#: ``repro`` module that imports the function by name.
OFFLINE_LAYERS = {
    "netlist.generate_s": [("repro.flow.stages:StagedFlow", "generate")],
    "placement.place_s": [("repro.flow.stages:StagedFlow", "place")],
    "timing.constrain_s": [("repro.flow.stages:StagedFlow", "unconstrained"),
                           ("repro.flow.stages:StagedFlow", "constrain")],
    "opt.opt_s": [("repro.flow.stages:StagedFlow", "opt")],
    "route.route_s": [("repro.flow.stages:StagedFlow", "route")],
    "timing.signoff_s": [("repro.flow.stages:StagedFlow", "signoff")],
    "ml.graph_s": [("repro.ml.dataset", "build_timing_graph"),
                   ("repro.ml.dataset", "build_level_plans")],
    "ml.features_s": [("repro.ml.dataset", "node_features")],
    "core.masks_s": [("repro.ml.dataset", "build_endpoint_masks")],
    "placement.layout_maps_s": [("*", "repro.placement.density:"
                                      "compute_layout_maps")],
    "ml.cache_write_s": [("repro.ml.dataset", "atomic_pickle_dump")],
    "ml.cache_read_s": [("repro.ml.dataset", "load_pickle_or_none")],
    "ml.pack_s": [("repro.ml.batch:PackedBatch", "pack")],
    "core.forward_s": [("repro.core.fusion:RestructureTolerantModel",
                        "forward_batch")],
    "core.backward_s": [("repro.core.fusion:RestructureTolerantModel",
                         "backward_batch")],
    "core.gnn_forward_s": [("repro.core.gnn:EndpointGNN", "forward")],
    "core.cnn_forward_s": [("repro.core.cnn:LayoutEncoder", "forward_batch")],
    "nn.adam_step_s": [("repro.nn.optim:Adam", "step")],
}
STAGE_LAYERS = ("netlist.generate_s", "placement.place_s",
                "timing.constrain_s", "opt.opt_s", "route.route_s",
                "timing.signoff_s")


def _resolve(dotted: str):
    import importlib

    module, _, attr = dotted.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


def layer_targets(clock: LayerClock) -> List:
    """``(owner, attribute, make)`` triples for :func:`layers.patched`."""
    targets = []
    for name, bindings in OFFLINE_LAYERS.items():
        hit = ((lambda result: result is not None)
               if name == "ml.cache_read_s" else None)
        make = (lambda fn, name=name, hit=hit: clock.wrap(name, fn, hit))
        for owner, attr in bindings:
            if owner == "*":
                fn = _resolve(attr)
                targets += [(mod, fn.__name__, make)
                            for mod in bindings_of(fn)]
            else:
                targets.append((_resolve(owner), attr, make))
    return targets


@dataclass
class OfflinePass:
    """Timings and outputs of one offline pass."""

    cache: Path
    work: Path
    wall_s: float = 0.0
    cold_s: List[float] = field(default_factory=list)    # per chunk
    sweep_s: List[float] = field(default_factory=list)   # per sweep
    warm_s: List[float] = field(default_factory=list)
    epoch_s: List[float] = field(default_factory=list)
    infer_s: List[float] = field(default_factory=list)
    cold: list = field(default_factory=list)
    warm: list = field(default_factory=list)
    sweep: list = field(default_factory=list)
    scenarios: list = field(default_factory=list)
    predictor: object = None
    packed: list = field(default_factory=list)
    # Traced-pass layer accounting (empty when untraced).
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def test(self) -> list:
        return [s for s in self.cold if s.split == "test"]


def flow_config(run: Run):
    from repro.flow import FlowConfig

    return FlowConfig(base_seed=run.seed, scale=run.sizes.offline_scale)


def new_pass(run: Run, tag: str) -> OfflinePass:
    return OfflinePass(cache=run.work / f"cache-{tag}",
                       work=run.work / f"offline-{tag}")


def cold_round(run: Run, p: OfflinePass, designs: Sequence[str]) -> None:
    """Build *designs* cold into the pass's (initially empty) cache."""
    from repro.ml import build_dataset

    t0 = time.perf_counter()
    p.cold += build_dataset(list(designs), flow_config(run),
                            cache_dir=p.cache, seed=run.seed, jobs=1)
    p.cold_s.append(time.perf_counter() - t0)
    run.ops(len(designs))


def sweep_round(run: Run, p: OfflinePass) -> None:
    """One ``clock_frac`` sweep of the sweep design into a fresh cache:
    its points share one stage store."""
    from repro.flow import expand_scenarios
    from repro.ml import build_dataset

    points = ",".join(f"{x:g}" for x in run.sizes.sweep_points)
    p.scenarios = expand_scenarios([f"clock_frac={points}"])
    t0 = time.perf_counter()
    p.sweep = build_dataset([run.sizes.sweep_design], flow_config(run),
                            cache_dir=p.work / f"sweep-{len(p.sweep_s)}",
                            seed=run.seed, jobs=1, scenarios=p.scenarios)
    p.sweep_s.append(time.perf_counter() - t0)
    run.ops(len(p.sweep))


def train_round(run: Run, p: OfflinePass, epochs: int) -> None:
    """*epochs* more epochs on the train designs, timing each.

    Training continues the same model one epoch per ``fit`` call, so
    that the epochs can be spread over the rounds of a run.
    """
    from repro.core import ModelConfig, TimingPredictor, TrainerConfig
    from repro.ml.batch import EndpointBatchSampler

    starts: List[float] = []

    def epoch_marker(batches):
        def marked(self, rng):
            starts.append(time.perf_counter())
            return batches(self, rng)
        return marked

    if p.predictor is None:
        p.predictor = TimingPredictor(
            model_config=ModelConfig(seed=run.seed),
            trainer_config=TrainerConfig(epochs=1, seed=run.seed))
    train = [s for s in p.cold if s.split == "train"]
    with patched([(EndpointBatchSampler, "batches", epoch_marker)]):
        for _ in range(epochs):
            p.predictor.fit(train)
            p.epoch_s.append(time.perf_counter() - starts[-1])
    run.ops(epochs)


def warm_round(run: Run, p: OfflinePass, repeats: int) -> None:
    """*repeats* warm rebuilds of the ten presets from the cold cache."""
    from repro.ml import build_dataset
    from repro.netlist import PAPER_DESIGNS

    for _ in range(repeats):
        t0 = time.perf_counter()
        warm = build_dataset(list(PAPER_DESIGNS), flow_config(run),
                             cache_dir=p.cache, seed=run.seed, jobs=1)
        p.warm_s.append(time.perf_counter() - t0)
        if not p.warm:
            p.warm = warm
    run.ops(repeats * len(PAPER_DESIGNS))


def infer_round(run: Run, p: OfflinePass, repeats: int) -> None:
    """*repeats* packed inferences over the held-out designs."""
    test = p.test
    for _ in range(repeats):
        t0 = time.perf_counter()
        p.packed = p.predictor.predict_batch_arrays(test)
        p.infer_s.append(time.perf_counter() - t0)
    run.ops(repeats)


def run_pass(run: Run, tag: str, clock: LayerClock) -> OfflinePass:
    """The whole pipeline back to back, its layers wrapped by *clock*
    (the traced run's pass)."""
    from repro.netlist import PAPER_DESIGNS
    from repro.obs import get_metrics

    p = new_pass(run, tag)
    with patched(layer_targets(clock)):
        t_start = time.perf_counter()
        cold_round(run, p, PAPER_DESIGNS)
        reuse0 = _reuse_count(get_metrics())
        calls0 = clock.snapshot()[1]
        sweep_round(run, p)     # one sweep (an untraced run repeats it)
        calls = delta(clock.snapshot()[1], calls0)
        p.counts["sweep_requested"] = sum(calls.get(n, 0)
                                          for n in STAGE_LAYERS)
        p.counts["sweep_reused"] = _reuse_count(get_metrics()) - reuse0
        _, calls0, hits0 = clock.snapshot()
        warm_round(run, p, run.sizes.warm_repeats)
        _, calls, hits = clock.snapshot()
        p.counts["warm_lookups"] = delta(calls, calls0).get(
            "ml.cache_read_s", 0)
        p.counts["warm_hits"] = delta(hits, hits0).get("ml.cache_read_s", 0)
        train_round(run, p, run.sizes.epochs)
        infer_round(run, p, run.sizes.infer_repeats)
        p.wall_s = time.perf_counter() - t_start
    p.layers = clock.snapshot()[0]
    p.counts["steps"] = clock.calls.get("nn.adam_step_s", 0)
    return p


def _reuse_count(registry) -> float:
    return sum(v for k, v in registry.snapshot().items()
               if k.startswith("flow.stage_reuse.")
               and isinstance(v, (int, float)))


def report(run: Run, p: OfflinePass) -> None:
    """The offline end-to-end metrics."""
    test = p.test
    n_test = int(sum(s.n_endpoints for s in test))
    run.metric("build_cold_s", sum(p.cold_s), "s",
               f"{len(p.cold)} designs at scale {run.sizes.offline_scale:g}"
               f" in {len(p.cold_s)} chunks, "
               f"{sum(s.n_nodes for s in p.cold)} nodes, "
               f"{sum(s.n_endpoints for s in p.cold)} endpoints")
    # The mean: a sweep is batch work, and a few samples of it average
    # the host's drift better than their median does.
    run.metric("sweep_s", float(np.mean(p.sweep_s)), "s",
               f"mean of {len(p.sweep_s)} sweeps of "
               f"{run.sizes.sweep_design} over {len(p.sweep)} clock_frac "
               "points")
    run.metric("build_warm_s", median(p.warm_s), "s",
               f"median of {len(p.warm_s)} warm rebuilds")
    run.metric("train_epoch_s", median(p.epoch_s), "s",
               f"median of {len(p.epoch_s)} epochs on "
               f"{len(p.cold) - len(test)} designs")
    run.metric("infer_endpoints_per_s", n_test / median(p.infer_s), "1/s",
               f"{n_test} held-out endpoints, median of "
               f"{len(p.infer_s)} packed passes")


def report_layers(run: Run, p: OfflinePass) -> None:
    """The offline per-layer rows; they and ``offline.other_s`` add up
    to the traced pass's wall time."""
    for name in OFFLINE_LAYERS:
        run.metric(name, p.layers.get(name, 0.0), "s")
    other = p.wall_s - sum(p.layers.values())
    run.metric("offline.other_s", other, "s",
               f"traced offline wall {p.wall_s:.3f} s")
    c = p.counts
    run.metric("ml.cache_hit_share",
               c["warm_hits"] / max(c["warm_lookups"], 1), "share",
               f"{c['warm_hits']:.0f}/{c['warm_lookups']:.0f} lookups")
    run.metric("flow.stage_reuse_share",
               c["sweep_reused"] / max(c["sweep_requested"], 1), "share",
               f"{c['sweep_reused']:.0f}/{c['sweep_requested']:.0f} stages")
    run.metric("train.steps", c["steps"], "count")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_all(run: Run, p: OfflinePass) -> None:
    """Every offline output check, each recorded on *run*."""
    from repro.flow import ScenarioSpec, run_flow_on_spec
    from repro.netlist import DESIGN_PRESETS

    run.check("offline.warm_equals_cold", compare_samples(p.cold, p.warm))

    idx = int(run.rng("sweep-check").integers(len(p.sweep)))
    scen = p.scenarios[idx]
    spec = ScenarioSpec(axes=scen.axes).apply(
        DESIGN_PRESETS[run.sizes.sweep_design].scaled(
            run.sizes.offline_scale))
    flow = run_flow_on_spec(spec, flow_config(run))
    run.check(f"offline.sweep_point_{scen.scenario_id or 'default'}"
              "_equals_flow", check_sweep_point(p.sweep[idx], flow))

    singles = [p.predictor.predict_array(s) for s in p.test]
    run.check("offline.packed_equals_single",
              check_close(p.packed, singles, 1e-9))
    run.check("offline.losses_finite",
              check_losses(p.predictor.trainer.history, run.sizes.epochs))


def compare_samples(expected: Sequence, got: Sequence) -> List[str]:
    if len(expected) != len(got):
        return [f"{len(got)} samples, expected {len(expected)}"]
    errors: List[str] = []
    for a, b in zip(expected, got):
        _deep_equal(a, b, a.name, errors)
    return errors


def _deep_equal(a, b, path: str, errors: List[str]) -> None:
    """Bit-for-bit structural equality (NaN equals NaN)."""
    if len(errors) >= 5:
        return
    if isinstance(a, np.ndarray):
        if not (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes()):
            errors.append(f"{path}: arrays differ")
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            errors.append(f"{path}: {type(b).__name__} != "
                          f"{type(a).__name__}")
            return
        for f in dataclasses.fields(a):
            _deep_equal(getattr(a, f.name), getattr(b, f.name),
                        f"{path}.{f.name}", errors)
    elif isinstance(a, dict):
        if not isinstance(b, dict) or a.keys() != b.keys():
            errors.append(f"{path}: keys differ")
            return
        for k in a:
            _deep_equal(a[k], b[k], f"{path}[{k!r}]", errors)
    elif isinstance(a, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            errors.append(f"{path}: sequences differ")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _deep_equal(x, y, f"{path}[{i}]", errors)
    elif isinstance(a, float) and isinstance(b, float):
        if struct.pack("<d", a) != struct.pack("<d", b):
            errors.append(f"{path}: {b!r} != {a!r}")
    elif a != b:
        errors.append(f"{path}: {b!r} != {a!r}")


def check_sweep_point(sample, flow) -> List[str]:
    """The sweep sample's labels are the independent flow's sign-off."""
    labels = flow.endpoint_labels()
    want = np.array([labels[int(p)] for p in sample.endpoint_pins])
    errors = []
    if want.tobytes() != np.asarray(sample.y, dtype=float).tobytes():
        errors.append("endpoint labels differ from an independent flow")
    sta = flow.signoff_sta
    for pin, arr in sample.signoff_arrival_by_pin.items():
        if arr != float(sta.arrival[sta.graph.node_of[pin]]):
            errors.append(f"sign-off arrival differs at pin {pin}")
            break
    return errors


def check_close(got: Sequence[np.ndarray], want: Sequence[np.ndarray],
                tol: float) -> List[str]:
    if len(got) != len(want):
        return [f"{len(got)} arrays, expected {len(want)}"]
    errors = []
    for i, (a, b) in enumerate(zip(got, want)):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            errors.append(f"array {i}: shape {a.shape} != {b.shape}")
        elif not np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))):
            errors.append(f"array {i}: max diff "
                          f"{float(np.max(np.abs(a - b))):.3g}")
    return errors


def check_losses(history: Sequence[float], epochs: int) -> List[str]:
    if len(history) != epochs:
        return [f"{len(history)} epoch losses, expected {epochs}"]
    if not all(np.isfinite(history)):
        return [f"non-finite loss in {list(history)}"]
    return []
