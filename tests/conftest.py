"""Fixtures shared by the test modules."""

from collections import namedtuple

import pytest

from repro.cmb.message import HEADER_BYTES, MessageType
from repro.jsonutil import canonical_dumps
from repro.sim.network import Network

FenceData = namedtuple("FenceData",
                       "time src count accounted encoded payload")


def _spy_on_sends(monkeypatch, record):
    """Call ``record(network, src, msg, size)`` for every message a
    broker hands to ``Network.send``, then send it."""
    send = Network.send

    def spy(self, src, dst, payload, size, **kw):
        _plane, msg = payload           # what Broker._send hands over
        record(self, src, msg, size)
        send(self, src, dst, payload, size, **kw)

    monkeypatch.setattr(Network, "send", spy)


@pytest.fixture
def fencedata_log(monkeypatch):
    """Every ``kvs.fencedata`` request put on the fabric while the test
    runs, in send order: simulated time, sending node, the client
    entries it carries (per origin, its count less the ``base`` count
    a delta extends), the bytes the NIC was charged, the bytes a real
    canonical encoding of the message would take, and the payload."""
    log = []

    def record(network, src, msg, size):
        if (msg.topic == "kvs.fencedata"
                and msg.mtype is MessageType.REQUEST):
            p = msg.payload
            count = sum(s[0] - (s[2] if len(s) > 2 else 0)
                        for s in p["shares"].values())
            log.append(FenceData(
                network.sim.now, src, count, size,
                HEADER_BYTES + len(canonical_dumps(p)), p))

    _spy_on_sends(monkeypatch, record)
    return log


@pytest.fixture
def barrier_relays(monkeypatch):
    """``(time, src rank, count)`` of every ``barrier.enter`` tally a
    broker relays to its parent while the test runs (brokers sit on
    node ``rank``; client entries carry no count)."""
    log = []

    def record(network, src, msg, _size):
        if (msg.topic == "barrier.enter"
                and msg.mtype is MessageType.REQUEST
                and "count" in msg.payload):
            log.append((network.sim.now, src, msg.payload["count"]))

    _spy_on_sends(monkeypatch, record)
    return log
