"""A bad edit is rejected before it touches the session.

A move to a non-finite point used to get through ``Edit.from_dict``
(``float("nan")``, ``float("inf")`` and the JSON token ``NaN`` all
parse); the placement and the STA wire lengths were already updated when
the rasterizer raised, so the cell stayed at ``(nan, …)`` and every later
preview reported a NaN WNS.  Non-finite coordinates are now a parse
error, and a request's edits are all validated before any is applied.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.flow import run_flow
from repro.serve import DesignSession, Edit, ServerConfig, TimingServer

from .conftest import FLOW_CONFIG, http_call

NON_FINITE = (float("nan"), float("inf"), float("-inf"), "nan", "inf",
              "-Infinity")


def _state(session):
    """Everything a rejected request must leave untouched."""
    sta = session.sta.result
    return (dict(session.placement.cell_xy),
            {c: i.type_name for c, i in session.netlist.cells.items()},
            sta.arrival.copy(), sta.required.copy(),
            session.sample.x_cell.copy(), session.sample.x_net.copy(),
            session.sample.layout_stack.copy(), session.revision)


def _assert_same_state(got, want) -> None:
    assert got[0] == want[0] and got[1] == want[1] and got[-1] == want[-1]
    for a, b in zip(got[2:-1], want[2:-1]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_from_dict_rejects_non_finite_coordinates(value, axis):
    edit = {"op": "move", "cell": 0, "x": 1.0, "y": 1.0, axis: value}
    with pytest.raises(ValueError, match="finite"):
        Edit.from_dict(edit)


@pytest.mark.parametrize("cell", ["zero", None, [1], float("nan"),
                                  float("inf"), 3.7, "3.5"], ids=repr)
def test_from_dict_rejects_bad_cell_ids(cell):
    with pytest.raises(ValueError, match="'cell'"):
        Edit.from_dict({"op": "move", "cell": cell, "x": 1.0, "y": 1.0})


def test_json_nan_token_is_rejected():
    body = json.loads('{"op": "move", "cell": 0, "x": NaN, "y": 1.0}')
    assert math.isnan(body["x"])
    with pytest.raises(ValueError, match="finite"):
        Edit.from_dict(body)


def test_rejected_batch_leaves_the_session_unchanged(fresh_flow,
                                                     served_predictor):
    session = DesignSession(fresh_flow, served_predictor)
    cid = sorted(session.netlist.cells)[0]
    other = sorted(session.netlist.cells)[1]
    good = {"op": "move", "cell": other, "x": 2.0, "y": 2.0}
    before = _state(session)
    bad_batches = [
        [good, {"op": "move", "cell": cid, "x": float("nan"), "y": 1.0}],
        [good, {"op": "move", "cell": cid, "x": "inf", "y": 1.0}],
        [good, Edit(op="move", cell=cid, x=float("nan"), y=1.0)],
        [good, {"op": "resize", "cell": cid, "type": "NO_SUCH_CELL"}],
        [good, {"op": "move", "cell": 10 ** 9, "x": 1.0, "y": 1.0}],
    ]
    for edits in bad_batches:
        for commit in (False, True):
            with pytest.raises((ValueError, KeyError)):
                session.whatif(edits, commit=commit)
            _assert_same_state(_state(session), before)
    with pytest.raises(ValueError):
        session.apply([good, Edit(op="move", cell=cid, x=1.0,
                                  y=float("-inf"))])
    _assert_same_state(_state(session), before)
    # The session still answers, with finite pre-route timing.
    result = session.whatif([good], commit=True)
    assert math.isfinite(result["pre_route"]["wns"])
    assert np.all(np.isfinite(session.sta.result.arrival))


@pytest.fixture(scope="module")
def server(served_predictor):
    session = DesignSession(run_flow("xgate", FLOW_CONFIG), served_predictor)
    srv = TimingServer({"xgate": session},
                       ServerConfig(port=0, max_workers=2))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def gateway(artifact_payload):
    from repro.serve import FleetConfig, TimingFleet, TimingGateway

    config = FleetConfig(workers=1, threads=1, microbatch=1,
                         deadline_s=20.0, queue_depth=4)
    fleet = TimingFleet(artifact_payload,
                        {"xgate": run_flow("xgate", FLOW_CONFIG)},
                        config).start()
    gw = TimingGateway(fleet, port=0).start()
    yield gw
    gw.stop(drain_timeout_s=15.0)


def _post_raw(address, body: str):
    """POST a hand-written JSON body (``NaN`` is not valid strict JSON,
    so ``http_call``'s encoder cannot produce it)."""
    import urllib.error
    import urllib.request

    host, port = address
    req = urllib.request.Request(
        f"http://{host}:{port}/whatif", data=body.encode(), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@pytest.mark.parametrize("transport", ["server", "gateway"])
@pytest.mark.parametrize("x", ["NaN", '"inf"', "-Infinity"])
def test_non_finite_move_is_a_400_and_the_server_stays_up(request,
                                                          transport, x):
    front = request.getfixturevalue(transport)
    status, before = _post_raw(front.address, json.dumps(
        {"design": "xgate", "edits": [{"op": "move", "cell": 1,
                                       "x": 2.0, "y": 2.0}]}))
    assert status == 200
    status, body = _post_raw(
        front.address,
        '{"design": "xgate", "commit": true, "edits": ['
        '{"op": "move", "cell": 1, "x": 2.0, "y": 2.0}, '
        f'{{"op": "move", "cell": 0, "x": {x}, "y": 1.0}}]}}')
    assert status == 400
    assert body["error"]["code"] == "bad_request"
    assert "finite" in body["error"]["message"]
    status, _, health = http_call(front.address, "GET", "/health")
    assert status == 200 and health["status"] == "ok"
    # Nothing was committed: the same preview gives the same answer.
    status, after = _post_raw(front.address, json.dumps(
        {"design": "xgate", "edits": [{"op": "move", "cell": 1,
                                       "x": 2.0, "y": 2.0}]}))
    assert status == 200
    assert after["revision"] == before["revision"]
    assert after["predictions"] == before["predictions"]
    assert math.isfinite(after["pre_route"]["wns"])
