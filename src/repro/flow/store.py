"""Per-stage artifact store for the staged flow engine.

One :class:`StageStore` holds the typed artifacts produced by the stages
of :mod:`repro.flow.stages`, keyed by their chained content fingerprints.
It has two layers:

* an **in-memory layer** (always on): scenario variants of one design
  built in the same process — a clock-constraint sweep, an ECO loop —
  share generate/place/constrain artifacts by reference with zero
  serialization cost;
* an optional **disk layer** (same guarantees as the dataset cache of
  :mod:`repro.utils.atomic`): writes are atomic (temp file +
  ``os.replace``), corrupt or truncated pickles are misses that warn and
  rebuild, and an artifact whose recorded key does not match its file
  name is discarded — a later run, or a crashed-and-restarted build,
  resumes from the deepest stage that survived.

Stage keys hash configuration, not code, so each file also records the
store :data:`LAYOUT` it was written under.  A file from another layout
(e.g. one holding an ``STAResult`` of an older shape) is a warn-and-
rebuild miss, never an object that fails later on a missing attribute.

The default single-scenario flow (`run_flow` with no store) never touches
this module, so the pre-refactor path stays free of new I/O.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.utils import (
    atomic_pickle_dump,
    get_logger,
    load_pickle_or_none,
    require,
)

logger = get_logger("flow.store")

__all__ = ["LAYOUT", "StageStore"]

#: On-disk layout of stage files: ``(LAYOUT, artifact)``.  Bump it when a
#: stored artifact, or anything it holds (``STAResult``, ``TimingGraph``,
#: ``Netlist``, ...), changes shape.  Files written before layouts were
#: recorded hold the bare artifact.
LAYOUT = 2


class StageStore:
    """Memory + optional-disk store of staged-flow artifacts.

    Parameters
    ----------
    directory:
        Optional disk layer.  ``None`` (default) keeps artifacts
        in-memory only — the right choice for one sweep/ECO batch; a
        directory makes later processes resume from the deepest stage
        already on disk (e.g. parallel dataset workers sharing
        ``<cache>/stages``).
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, Any] = {}
        self.hits = 0          # in-memory hits
        self.disk_hits = 0     # disk-layer hits (promoted to memory)
        self.misses = 0

    # ------------------------------------------------------------------
    def path(self, key: str) -> Optional[Path]:
        """Disk location for *key* (``None`` without a disk layer)."""
        if self.directory is None:
            return None
        return self.directory / f"stage_{key}.pkl"

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        p = self.path(key)
        return p is not None and p.exists()

    def get(self, key: str) -> Optional[Any]:
        """The artifact stored under *key*, or ``None`` (a miss).

        Disk reads validate that the unpickled file has the current
        :data:`LAYOUT` and that its artifact carries the key it was filed
        under; a mismatch (a file from older code, a file copied between
        stores, a partial write that still unpickled) is treated as
        corruption: warn, unlink, miss.
        """
        art = self._memory.get(key)
        if art is not None:
            self.hits += 1
            return art
        p = self.path(key)
        if p is not None:
            stored = load_pickle_or_none(p, logger)
            if stored is not None:
                art = _unwrap(stored, key)
                if art is None:
                    logger.warning(
                        "discarding stage artifact %s: not a layout-%d "
                        "artifact for key %r", p, LAYOUT, key)
                    try:
                        p.unlink()
                    except OSError:
                        pass
                else:
                    self.disk_hits += 1
                    self._memory[key] = art
                    return art
        self.misses += 1
        return None

    def put(self, key: str, artifact: Any) -> None:
        """Publish *artifact* under *key* (memory, then atomically disk)."""
        require(getattr(artifact, "key", None) == key,
                f"artifact key {getattr(artifact, 'key', None)!r} does "
                f"not match store key {key!r}")
        self._memory[key] = artifact
        p = self.path(key)
        if p is not None:
            atomic_pickle_dump((LAYOUT, artifact), p)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "entries": len(self._memory)}


def _unwrap(stored: Any, key: str) -> Optional[Any]:
    """The artifact in a stage file, or ``None`` for another layout or a
    recorded key that does not match *key*."""
    if not (isinstance(stored, tuple) and len(stored) == 2
            and stored[0] == LAYOUT):
        return None
    art = stored[1]
    return art if getattr(art, "key", None) == key else None
