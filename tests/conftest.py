"""Fixtures shared by the test modules."""

from collections import namedtuple

import pytest

from repro.cmb.message import HEADER_BYTES, MessageType
from repro.jsonutil import canonical_dumps
from repro.sim.network import Network

FenceData = namedtuple("FenceData", "time src count accounted encoded")


@pytest.fixture
def fencedata_log(monkeypatch):
    """Every legacy-format ``kvs.fencedata`` request put on the fabric
    while the test runs, in send order: simulated time, sending node,
    contribution count, the bytes the NIC was charged and the bytes a
    real canonical encoding of the message would take."""
    log = []
    send = Network.send

    def spy(self, src, dst, payload, size, **kw):
        _plane, msg = payload           # what Broker._send hands over
        if (msg.topic == "kvs.fencedata"
                and msg.mtype is MessageType.REQUEST
                and "count" in msg.payload):
            log.append(FenceData(
                self.sim.now, src, msg.payload["count"], size,
                HEADER_BYTES + len(canonical_dumps(msg.payload))))
        send(self, src, dst, payload, size, **kw)

    monkeypatch.setattr(Network, "send", spy)
    return log
