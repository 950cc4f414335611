"""A malformed ``Content-Length`` gets a structured 400 on both
transports, and the server stays up.

A non-numeric length used to unwind the gateway's event loop (and with
it the whole fleet); a negative one made the threaded server block in
``rfile.read(-n)`` until the client hung up.  The body of such a request
has no known end, so each transport answers and closes the connection.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.flow import run_flow
from repro.serve import DesignSession, ServerConfig, TimingServer
from repro.serve.api import ApiError, content_length

from .conftest import FLOW_CONFIG, http_call

BAD_LENGTHS = ("abc", "-5", "+3", "1.5", "0x10", "²")


def raw_post(address, length: str, timeout: float = 10.0):
    """POST with a hand-written Content-Length; ``(status, body, closed)``."""
    request = ("POST /predict HTTP/1.1\r\nHost: test\r\n"
               "Content-Type: application/json\r\n"
               f"Content-Length: {length}\r\n\r\n"
               '{"design": "xgate"}').encode("utf-8")
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        data = b""
        while True:  # read until the server closes the connection
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body), b"connection: close" in head.lower()


@pytest.mark.parametrize("value,expected", [
    (None, 0), ("", 0), ("  ", 0), ("0", 0), ("17", 17), (" 42 ", 42)])
def test_content_length_accepts_byte_counts(value, expected):
    assert content_length(value) == expected


@pytest.mark.parametrize("value", BAD_LENGTHS)
def test_content_length_rejects_the_rest(value):
    with pytest.raises(ApiError) as info:
        content_length(value)
    assert info.value.status == 400
    assert info.value.code == "bad_request"


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


@pytest.mark.parametrize("transport", ["server", "gateway"])
@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_length_is_a_400_and_the_server_stays_up(request, transport,
                                                     length):
    front = request.getfixturevalue(transport)
    status, body, closed = raw_post(front.address, length)
    assert status == 400
    assert body["error"]["code"] == "bad_request"
    assert "Content-Length" in body["error"]["message"]
    assert closed
    status, _, health = http_call(front.address, "GET", "/health")
    assert status == 200 and health["status"] == "ok"
    # A well-formed request on a fresh connection is still served.
    status, _, reply = http_call(front.address, "POST", "/predict",
                                 {"design": "xgate"})
    assert status == 200 and reply["predictions"]
