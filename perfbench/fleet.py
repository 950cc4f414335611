"""Fleet section: the what-if edits and ``/predict`` over HTTP.

The fleet (``TimingGateway`` + ``TimingFleet``, at most ``nproc``
workers and at least one design per worker) runs in its own process,
started from :mod:`fleet_server`.  The load is an open loop at two
fixed rates, sent from this process by one thread over at most
``nproc`` keep-alive connections, opened once per phase and reused by
each of its slices (requests are pipelined, so a busy connection never
delays a send).  Latency is counted from each
request's due time, so a stall also charges the requests queued behind
it.  Transport does nearly all the work of a ``/predict`` and a small
part of a what-if; comparing this section with the in-process what-if
loop on the same edits isolates the gateway → pipe → worker →
micro-batch hops.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import pickle
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import Run, cpu_count, exact_counts, median, tail
from whatif import Op, Served, compare_predictions, open_session

SPIN_S = 0.002
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class InvalidRun(RuntimeError):
    """The load generator fell behind its schedule."""


@dataclass
class FleetProc:
    proc: subprocess.Popen
    address: Tuple[str, int]
    worker_pids: List[int]
    trace_dir: Optional[Path]


def start(run: Run, served: Served, tag: str, tracing: bool) -> FleetProc:
    """Start the fleet server process and wait until it serves."""
    workers = min(cpu_count(), len(served.pristine))
    trace_dir = run.work / f"fleet-trace-{tag}" if tracing else None
    spec = {
        "payload": served.predictor.to_artifact(),
        "flows": served.pristine,
        "seeds": {d: run.seed for d in served.pristine},
        "config": {"workers": workers, "tracing": tracing,
                   "trace_dir": str(trace_dir) if trace_dir else None},
    }
    spec_path = run.work / f"fleet-{tag}.pkl"
    with open(spec_path, "wb") as fh:
        pickle.dump(spec, fh)
    server = Path(__file__).resolve().parent / "fleet_server.py"
    env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE"}
    with open(run.work / f"fleet-{tag}.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, str(server),
                                 str(spec_path)],
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=log,
                                env=env, cwd=run.root)
    try:
        line = _read_line(proc, START_TIMEOUT_S)
        if not line.startswith("listening "):
            raise RuntimeError(f"fleet server did not start: {line!r} "
                               f"(see {run.work / f'fleet-{tag}.log'})")
        _, host, port = line.split()
        address = (host, int(port))
        health = json.loads(call(address, "GET", "/health"))
        pids = [w["pid"] for w in health["fleet"]["per_worker"]]
    except BaseException:
        _kill(proc)
        raise
    return FleetProc(proc=proc, address=address, worker_pids=pids,
                     trace_dir=trace_dir)


def stop(fp: FleetProc, phases: Sequence["Phase"] = ()) -> None:
    """Close the *phases*' connections, drain the fleet, and wait for
    its server and workers to exit."""
    for phase in phases:
        phase.close()
    try:
        fp.proc.stdin.close()
        fp.proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill(fp.proc)
    finally:
        fp.proc.stdout.close()
    deadline = time.monotonic() + STOP_TIMEOUT_S
    for pid in fp.worker_pids:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)


def _kill(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait(timeout=STOP_TIMEOUT_S)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # A zombie still answers kill(0): it has exited but is not reaped.
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().split(b") ", 1)[1][:1] != b"Z"
    except OSError:
        return False


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            raise TimeoutError(f"fleet server silent for {timeout:.0f} s")
    finally:
        sel.close()
    return proc.stdout.readline().decode("utf-8", "replace").strip()


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def _request(method: str, path: str, body: Optional[Dict]) -> bytes:
    data = json.dumps(body).encode() if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n")
    return head.encode("latin-1") + data


def _parse_responses(buf: bytearray) -> List[Tuple[int, bytes]]:
    """Pop every complete response off *buf*."""
    out = []
    while True:
        end = buf.find(b"\r\n\r\n")
        if end < 0:
            return out
        lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        if len(buf) < end + 4 + length:
            return out
        out.append((status, bytes(buf[end + 4:end + 4 + length])))
        del buf[:end + 4 + length]


def call(address, method: str, path: str, body: Optional[Dict] = None,
         timeout: float = 60.0) -> bytes:
    """One blocking request on a fresh connection (set-up and warm-up);
    returns the body of a 200 reply."""
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        data = json.dumps(body) if body is not None else None
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        reply = conn.getresponse()
        payload = reply.read()
    finally:
        conn.close()
    if reply.status != 200:
        raise RuntimeError(f"{method} {path}: HTTP {reply.status}")
    return payload


@dataclass
class Sent:
    """One open-loop request and what became of it."""

    path: str
    body: Dict
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: bytes = b""


class _Conn:
    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.wbuf = bytearray()
        self.rbuf = bytearray()
        self.outstanding: deque = deque()

    def flush(self) -> None:
        while self.wbuf:
            try:
                n = self.sock.send(self.wbuf)
            except (BlockingIOError, InterruptedError):
                return
            del self.wbuf[:n]


def open_loop(conns: List[_Conn], reqs: List[Sent],
              offsets: Sequence[float], grace_s: float = 60.0) -> None:
    """Send *reqs* at ``start + offsets`` over the pipelined *conns*;
    fills each request's times, status and payload."""
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    wire = [_request("POST", r.path, r.body) for r in reqs]
    start = time.perf_counter() + 0.02
    for r, off in zip(reqs, offsets):
        r.due = start + off
    hard_stop = start + (offsets[-1] if len(offsets) else 0.0) + grace_s
    i, pending, turn = 0, len(reqs), 0
    try:
        while pending:
            now = time.perf_counter()
            while i < len(reqs) and reqs[i].due <= now:
                # Least-loaded connection; ties rotate.
                c = min(conns, key=lambda c: (len(c.outstanding),
                                              (conns.index(c) - turn)
                                              % len(conns)))
                turn += 1
                c.wbuf += wire[i]
                c.outstanding.append(i)
                c.flush()
                reqs[i].sent = time.perf_counter()
                if c.wbuf:
                    sel.modify(c.sock, selectors.EVENT_READ
                               | selectors.EVENT_WRITE, c)
                i += 1
                now = reqs[i - 1].sent
            if now > hard_stop:     # the unanswered requests fail
                break
            # epoll sleeps in whole milliseconds: sleep until just before
            # the next send, then poll, so sends leave on time.
            timeout = (reqs[i].due - now - SPIN_S if i < len(reqs)
                       else 0.5)
            timeout = max(timeout, 0.0)
            for key, events in sel.select(timeout):
                c = key.data
                if events & selectors.EVENT_WRITE:
                    c.flush()
                    if not c.wbuf:
                        sel.modify(c.sock, selectors.EVENT_READ, c)
                if events & selectors.EVENT_READ:
                    try:
                        chunk = c.sock.recv(1 << 20)
                    except (BlockingIOError, InterruptedError):
                        continue
                    if not chunk:
                        raise ConnectionError("gateway closed a "
                                              "connection mid-run")
                    c.rbuf += chunk
                    t = time.perf_counter()
                    for status, payload in _parse_responses(c.rbuf):
                        r = reqs[c.outstanding.popleft()]
                        r.done, r.status, r.payload = t, status, payload
                        pending -= 1
    finally:
        sel.close()


# ----------------------------------------------------------------------
# The measured phases
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One fixed rate.  Its requests are sent in slices between the
    other sections' work, over connections opened once per phase."""

    name: str
    rate: float
    reqs: List[Sent] = field(default_factory=list)
    sent_upto: int = 0
    conns: List[_Conn] = field(default_factory=list)
    #: Wall-clock (``time.time``) bounds of every slice sent so far.
    windows: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def ok(self) -> List[Sent]:
        return [r for r in self.reqs if r.status == 200]

    def latency_ms(self) -> List[float]:
        """Latency from due time; a failed request never completes."""
        return [(r.done - r.due) * 1e3 if r.status == 200
                else float("inf") for r in self.reqs]

    def lateness_ms(self) -> List[float]:
        return [(r.sent - r.due) * 1e3 for r in self.reqs]

    def close(self) -> None:
        for c in self.conns:
            c.sock.close()
        self.conns = []


def request_mix(run: Run, ops: List[Op], n: int) -> List[Sent]:
    """*n* seeded requests over the served designs, in an exact mix:
    ``fleet_predict_share`` of them ``/predict``, the rest the preview
    edits of *ops* in order, each kind split equally over the designs."""
    rng = run.rng("fleet-mix")
    designs = sorted({op.design for op in ops})
    previews = {d: [op for op in ops if op.design == d and not op.commit]
                for d in designs}
    share = run.sizes.fleet_predict_share
    n_predict, n_preview = exact_counts(n, [share, 1.0 - share])
    out = []
    for d, k in zip(designs, exact_counts(n_predict, [1.0] * len(designs))):
        out += [Sent("/predict", {"design": d}) for _ in range(k)]
    for d, k in zip(designs, exact_counts(n_preview, [1.0] * len(designs))):
        out += [Sent("/whatif", {"design": d, "edits": [op.edit],
                                 "commit": False})
                for op in (previews[d] * (k // len(previews[d]) + 1))[:k]]
    return [out[j] for j in rng.permutation(len(out)).tolist()]


def warm_up(fp: FleetProc, ops: List[Op]) -> None:
    """One ``/predict`` and one preview per design, before measuring."""
    for d in sorted({op.design for op in ops}):
        call(fp.address, "POST", "/predict", {"design": d})
        preview = next(op for op in ops if op.design == d)
        call(fp.address, "POST", "/whatif", {"design": d,
                                             "edits": [preview.edit]})


def make_phases(run: Run, ops: List[Op], share: float = 1.0,
                high: bool = True) -> List[Phase]:
    """The ``low`` phase and, with *high*, the ``high`` one: each sends
    the same ``fleet_requests_per_s * --seconds`` requests (times
    *share*) at its fixed rate."""
    n = max(int(round(run.sizes.fleet_requests_per_s * run.seconds
                      * share)), 2)
    names = ("low", "high") if high else ("low",)
    return [Phase(name=name, rate=rate, reqs=request_mix(run, ops, n))
            for name, rate in zip(names, run.sizes.fleet_rates)]


def run_slice(run: Run, fp: FleetProc, phase: Phase, n: int) -> None:
    """Send the next *n* requests of *phase* at its rate, open loop."""
    reqs = phase.reqs[phase.sent_upto:phase.sent_upto + n]
    phase.sent_upto += len(reqs)
    if not reqs:
        return
    if not phase.conns:
        phase.conns = [_Conn(fp.address) for _ in range(min(cpu_count(), 2))]
    t0 = time.time()
    open_loop(phase.conns, reqs, np.arange(len(reqs)) / phase.rate)
    phase.windows.append((t0, time.time()))
    if any(c.outstanding for c in phase.conns):
        phase.close()       # late replies must not land on later slices
    run.ops(len(reqs), sum(r.status != 200 for r in reqs))


def check_generator(phases: List[Phase], limit: float) -> None:
    """Mark the run invalid when the generator's median lateness exceeds
    *limit* times the phase's median latency."""
    for p in phases:
        late = median(p.lateness_ms())
        p50 = median(p.latency_ms())
        print(f"generator {p.name}: lateness median {late:.3f} ms, max "
              f"{max(p.lateness_ms()):.3f} ms over {len(p.reqs)} sends "
              f"at {p.rate:g}/s", flush=True)
        if not late <= limit * p50:
            raise InvalidRun(f"generator fell behind at {p.name} rate: "
                             f"median lateness {late:.3f} ms > "
                             f"{limit:g} x p50 {p50:.3f} ms")


def report(run: Run, phases: List[Phase]) -> None:
    for p in phases:
        lat = p.latency_ms()
        run.metric(f"fleet_{p.name}_p50_ms", median(lat), "ms",
                   f"{len(lat)} requests at {p.rate:g}/s")
        q, v = tail(lat)
        run.metric(f"fleet_{p.name}_tail_ms", v, "ms",
                   f"p{q:g} of {len(lat)} requests at {p.rate:g}/s")


def report_layers(run: Run, fp: FleetProc, phases: List[Phase]) -> None:
    """Worker time from the workers' own trace files; the rows and
    ``fleet.other_s`` add up to the summed latency from due time."""
    events = _worker_events(fp.trace_dir,
                            [w for p in phases for w in p.windows])
    worker = [e["dur"] for e in events
              if e["name"] == "serve.worker.request"
              and str(e["attrs"].get("route", "")).startswith("POST /")]
    forwards = [e for e in events if e["name"] == "model.infer_batch"]
    reqs = [r for p in phases for r in p.ok]
    worker_ms = float(np.mean(worker)) * 1e3 if worker else 0.0
    served_ms = float(np.mean([(r.done - r.sent) * 1e3 for r in reqs]))
    run.metric("fleet.worker_ms", worker_ms, "ms",
               f"{len(worker)} worker spans")
    run.metric("fleet.hop_ms", served_ms - worker_ms, "ms",
               "client send to reply, minus worker time")
    run.metric("fleet.other_s", sum(r.sent - r.due for r in reqs), "s",
               "generator lateness: due to send, summed")
    coalesced = sum(int(e["attrs"].get("designs", 1)) > 1
                    for e in forwards)
    run.metric("batcher.coalesced_share",
               coalesced / max(len(forwards), 1), "share",
               f"{coalesced}/{len(forwards)} forwards")
    run.metric("fleet.rejected",
               sum(r.status == 503 for p in phases for r in p.reqs),
               "count")


def _worker_events(trace_dir: Optional[Path],
                   windows: Sequence[Tuple[float, float]]) -> List[Dict]:
    """Worker spans that lie inside one of the measured *windows*."""
    events = []
    for path in sorted(glob.glob(str(trace_dir / "worker-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                try:
                    e = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if e.get("type") == "span" and any(
                        t0 <= e["ts"] and e["ts"] + e["dur"] <= t1
                        for t0, t1 in windows):
                    events.append(e)
    return events


def latency_total_s(phases: List[Phase]) -> float:
    return sum(r.done - r.due for p in phases for r in p.ok)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_all(run: Run, served: Served, phases: List[Phase]) -> None:
    reqs = [r for p in phases for r in p.reqs]
    run.check("fleet.bodies_parse", check_bodies(reqs))
    ok = [r for r in reqs if r.status == 200]
    picks = run.rng("fleet-checks").permutation(len(ok))
    run.check("fleet.equals_in_process", check_in_process(
        run, served, [ok[k] for k in sorted(
            picks[:run.sizes.fleet_checks].tolist())]))


def check_bodies(reqs: Sequence[Sent]) -> List[str]:
    """Every request answered 200 with a body the API types accept."""
    errors = []
    for r in reqs:
        if r.status == 200:
            errors += parse_body(r.path, r.payload)
        else:
            errors.append(f"{r.path} {r.body.get('design')}: HTTP "
                          f"{r.status}")
    return errors


def check_in_process(run: Run, served: Served,
                     reqs: Sequence[Sent]) -> List[str]:
    sessions: Dict[str, object] = {}
    errors: List[str] = []
    try:
        for r in reqs:
            errors += compare_in_process(run, served, sessions, r)
    finally:
        for s in sessions.values():
            s.close()
    return errors


def compare_in_process(run: Run, served: Served, sessions: Dict,
                       r: Sent) -> List[str]:
    """The fleet answer for *r* equals a fresh in-process session's (the
    fleet only ever sees previews, so its sessions stay pristine).  A
    coalesced forward may differ from a single one in the last bits."""
    from repro.serve import Edit

    design = r.body["design"]
    if design not in sessions:
        sessions[design] = open_session(run, served, design)
    session = sessions[design]
    got = json.loads(r.payload)["predictions"]
    if r.path == "/predict":
        want = session.predict()
    else:
        want = session.whatif([Edit.from_dict(e) for e in r.body["edits"]],
                              commit=False)["predictions"]
    return compare_predictions(want, got, f"{r.path} {design}", tol=1e-9)


def parse_body(path: str, payload: bytes) -> List[str]:
    """A 200 body parses into its ``repro.serve.api`` response type and
    renders back to the same wire form."""
    from repro.serve import PredictResponse, WhatifResponse

    try:
        body = json.loads(payload)
        preds = {int(k): v for k, v in body["predictions"].items()}
        if path == "/predict":
            typed = PredictResponse(design=body["design"],
                                    revision=body["revision"],
                                    predictions=preds)
        else:
            typed = WhatifResponse(
                design=body["design"], revision=body["revision"],
                committed=body["committed"], predictions=preds,
                pre_route=body["pre_route"], shift=body["shift"],
                latency_ms=body["latency_ms"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{path}: unparseable body ({type(exc).__name__}: {exc})"]
    if typed.to_wire() != body:
        return [f"{path}: body does not round-trip through the API type"]
    return []
