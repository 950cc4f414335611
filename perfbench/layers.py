"""Per-layer timing from outside the program.

The offline pipeline is one public call deep (``build_dataset``,
``TimingPredictor.fit``), so in the traced run the benchmark wraps the
public functions and methods under it and keeps *self time* per layer:
a wrapped call's duration minus the time of wrapped calls nested inside
it.  The self times plus the unwrapped remainder add up to the wall time
of the region, which is what the ``<section>.other_s`` rows report.

What-if serving is one call deep too (``DesignSession.whatif``); there
the benchmark reads the spans the program already records
(``serve.whatif``, ``sta.refresh``, ``model.infer``) with
:func:`span_self_times` instead of wrapping anything.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class LayerClock:
    """Self-time and call-count accounting for wrapped callables.

    Not thread-safe: the offline pipeline runs serially (``jobs=1``).
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.hits: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []

    def wrap(self, name: str, fn: Callable,
             hit: Optional[Callable[[object], bool]] = None) -> Callable:
        """*fn* timed under *name*; ``hit(result)`` counts useful outcomes."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += dt - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result
        return timed

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int],
                                Dict[str, int]]:
        return dict(self.self_s), dict(self.calls), dict(self.hits)


def delta(after: Dict, before: Dict) -> Dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


@contextmanager
def patched(targets: Iterable[Tuple[object, str, Callable]]):
    """Temporarily replace ``owner.attr`` with ``make(original)``.

    Class-level ``classmethod`` objects are unwrapped and re-wrapped so
    the replacement binds like the original.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def bindings_of(fn: Callable, prefix: str = "repro") -> List[object]:
    """Every loaded ``repro.*`` module that binds *fn* under its name."""
    name = fn.__name__
    return [mod for mod_name, mod in sorted(sys.modules.items())
            if mod is not None
            and (mod_name == prefix or mod_name.startswith(prefix + "."))
            and getattr(mod, name, None) is fn]


# ----------------------------------------------------------------------
# Spans recorded by the program
# ----------------------------------------------------------------------
def span_self_times(events: Sequence[Dict], root: str,
                    children: Sequence[str]) -> List[Dict[str, float]]:
    """Per *root* span: its duration and the time of its outermost
    descendants named in *children* (prefix match), keyed by name."""
    spans = [e for e in events if e.get("type") == "span"]
    by_id = {e["span_id"]: e for e in spans}
    out: Dict[int, Dict[str, float]] = {}
    for e in spans:
        if e["name"] == root:
            out[e["span_id"]] = {"dur": float(e["dur"])}
    for e in spans:
        match = next((c for c in children if e["name"].startswith(c)), None)
        if match is None:
            continue
        # Walk up: skip spans nested under another counted child, and
        # attribute to the nearest root ancestor.
        parent = e.get("parent_id")
        nested = False
        while parent is not None and parent not in out:
            p = by_id.get(parent)
            if p is None:
                break
            if any(p["name"].startswith(c) for c in children):
                nested = True
                break
            parent = p.get("parent_id")
        if nested or parent not in out:
            continue
        row = out[parent]
        row[match] = row.get(match, 0.0) + float(e["dur"])
    return [out[k] for k in sorted(out)]
