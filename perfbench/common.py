"""Shared pieces of the benchmark: run context, statistics, output.

Every section (offline, whatif, fleet) receives one :class:`Run`.  It
carries the workload parameters, the seeded random streams, the work
directory inside the checkout, and the ledger of attempted operations,
failed operations and correctness-check failures.  Metrics are recorded
by name with their unit and printed as ``metric <name> <value> <unit>``
lines; the last line of standard output is the JSON result object.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

#: Percentile ladder for ``*_tail_ms``: the highest rung that leaves at
#: least :data:`TAIL_BEYOND` samples beyond it is reported.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    """One workload: the shape of the seeded what-if edit stream.

    The offline pipeline is the same in every workload; the edit stream
    drives both the in-process what-if loop and the fleet's preview
    requests.  Shares are of all edits: nudges move a cell by a few
    microns, far moves send it anywhere on the die, resizes swap its
    drive strength.  The two mixes bracket edit locality; no recorded
    trace of user edits exists to set them from.
    """

    name: str
    why: str
    nudge: float
    far: float
    resize: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("local",
                 "the local end of edit locality, which incremental STA "
                 "and featurization depend on: 80 % small nudges; the "
                 "offline pipeline and the fleet run in every run",
                 nudge=0.8, far=0.1, resize=0.1),
        Workload("global",
                 "the global end of edit locality: 80 % far moves and "
                 "resizes (resizes make its previews cheaper); the "
                 "offline pipeline and the fleet run in every run",
                 nudge=0.2, far=0.4, resize=0.4),
    )
}


def exact_counts(n: int, shares: Sequence[float]) -> List[int]:
    """*n* split by *shares* into whole counts that sum to *n* (largest
    remainders), so a seeded stream holds its mix exactly."""
    raw = [n * s / sum(shares) for s in shares]
    counts = [int(math.floor(x)) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one run; :meth:`minimum` is the self-test size.

    The shares and rates are assumptions, not taken from a recorded
    trace.  The fleet rates sit at about 35 % and 70 % of the two-worker
    fleet's capacity on a 2-vCPU machine (about 17 requests/s there).
    """

    offline_scale: float = 0.07
    sweep_design: str = "arm9"
    sweep_points: Sequence[float] = (0.6, 0.75, 0.9)
    sweeps: int = 8
    warm_repeats: int = 30
    epochs: int = 10
    infer_repeats: int = 60
    serve_designs: Sequence[str] = ("arm9", "xgate")
    serve_scale: float = 0.25
    setup_repeats: int = 2
    whatif_ops_per_s: float = 12.0      # edits per second of --seconds
    commit_share: float = 0.2
    whatif_checks: int = 3
    fleet_predict_share: float = 0.2
    fleet_rates: Sequence[float] = (6.0, 12.0)    # requests/s: low, high
    #: Requests per phase, per second of ``--seconds``: 100 at the
    #: default 16 s, so ``*_tail_ms`` reaches p90.
    fleet_requests_per_s: float = 6.25
    fleet_checks: int = 8
    #: Interleaved rounds (see run.execute); an even number.
    rounds: int = 20

    @classmethod
    def minimum(cls) -> "Sizes":
        return cls(offline_scale=0.04, sweep_design="xgate",
                   sweep_points=(0.7, 0.8), sweeps=1, warm_repeats=2,
                   epochs=2, infer_repeats=2, serve_scale=0.1,
                   whatif_ops_per_s=24.0, whatif_checks=2,
                   fleet_rates=(20.0, 40.0), fleet_requests_per_s=12.0,
                   fleet_checks=3, rounds=2)


@dataclass
class Run:
    """State shared by the sections of one benchmark run."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    work: Path
    root: Path
    sizes: Sizes = field(default_factory=Sizes)
    attempted: int = 0
    failed: int = 0
    check_failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def rng(self, purpose: str) -> np.random.Generator:
        """A seeded stream per purpose, independent of call order."""
        key = [self.seed] + [ord(c) for c in purpose]
        return np.random.default_rng(np.random.SeedSequence(key))

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, errors: Sequence[str]) -> None:
        """Record one correctness check; a failure is a failed operation."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.check_failures.extend(f"{name}: {e}" for e in errors[:5])
            print(f"check FAILED {name}: {errors[0]}", flush=True)
        else:
            print(f"check ok {name}", flush=True)

    def metric(self, name: str, value: float, unit: str,
               note: str = "") -> None:
        if name in self.metrics:
            raise KeyError(f"metric {name} recorded twice")
        self.metrics[name] = {"value": float(value), "unit": unit}
        extra = f"  ({note})" if note else ""
        print(f"metric {name} {value:.6g} {unit}{extra}", flush=True)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float]) -> tuple:
    """``(percentile, value)`` of the highest ladder rung with at least
    :data:`TAIL_BEYOND` samples strictly beyond its rank."""
    n = len(values)
    best = None
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            best = q
    if best is None:        # too few samples for any rung: report the max
        return 100.0, float(max(values)) if values else float("nan")
    return best, percentile(values, best)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (the
    fleet server and, through it, its workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def fingerprint(root: Path) -> Dict[str, object]:
    """Machine and code fingerprint recorded with every result."""
    return {
        "cpus": cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(root),
        "src_sha256": _tree_hash(root / "src"),
    }


def _tree_hash(src: Path) -> str:
    """Content hash of the program's sources, for checkouts that are not
    git repositories."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit(root: Path) -> str:
    """The checkout's commit, or ``"unknown"`` unless *root* is the top
    of a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if (out.returncode != 0 or len(lines) != 2
            or Path(lines[0]).resolve() != root.resolve()):
        return "unknown"
    return lines[1]


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def emit_result(run: Run, keep: Sequence[str]) -> None:
    """Print the final JSON line with the metrics named in *keep*."""
    missing = [k for k in keep if k not in run.metrics]
    if missing:
        raise KeyError(f"metrics never recorded: {missing}")
    result = {
        "correct": not run.check_failures and run.failed == 0,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {k: run.metrics[k] for k in keep},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
