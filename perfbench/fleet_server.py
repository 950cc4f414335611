"""Serve pickled flows through ``TimingFleet`` + ``TimingGateway``.

Started by the fleet section as its own process, so the load generator
shares no interpreter lock with the gateway::

    python3 perfbench/fleet_server.py SPEC.pkl

``SPEC.pkl`` holds ``{"payload": predictor artifact, "flows": {design:
pickled FlowResult}, "seeds": {design: seed}, "config": FleetConfig
keyword arguments}``.  Prints ``listening HOST PORT`` once every worker
has opened its sessions, serves until standard input closes, then
drains and stops the workers.
"""

from __future__ import annotations

import pickle
import sys
import threading
from pathlib import Path


def main(argv) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.serve import FleetConfig, TimingFleet, TimingGateway

    with open(argv[1], "rb") as fh:
        spec = pickle.load(fh)
    flows = {d: pickle.loads(b) for d, b in spec["flows"].items()}
    fleet = TimingFleet(spec["payload"], flows,
                        FleetConfig(**spec["config"]),
                        seeds=spec["seeds"]).start()
    gateway = TimingGateway(fleet, port=0)
    try:
        host, port = gateway.bind()
    except OSError:
        fleet.stop()
        raise
    threading.Thread(target=_drain_on_eof, args=(gateway,),
                     daemon=True).start()
    print(f"listening {host} {port}", flush=True)
    gateway.serve_forever(drain_timeout_s=10.0)
    return 0


def _drain_on_eof(gateway) -> None:
    sys.stdin.read()
    gateway.request_drain()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
