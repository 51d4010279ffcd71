"""The callback request hop: inbox ports and topic-indexed events.

A broker's inbox is a :class:`~repro.sim.kernel.Port` that calls the
broker back, one kernel event per message, where a process looping on
``Channel.get`` would have been resumed.  These tests hold the port to
that reference loop, and the broker's per-topic subscriber index to the
prefix scan it replaced.
"""

from repro.cmb.broker import PLANE_TREE
from repro.cmb.message import Message
from repro.cmb.module import CommsModule
from repro.cmb.session import CommsSession, ModuleSpec
from repro.sim.cluster import make_cluster
from repro.sim.kernel import Channel, Port, Simulation


class _Names:
    """Kernel recorder keeping ``(t, name)`` of every processed event."""

    chunk = 1 << 20

    def __init__(self):
        self.entries = []

    def flush(self):
        pass

    def stream(self):
        return [(t, ev.name) for t, _p, _s, ev in self.entries]


def _scenario(sim, inbox, log):
    """Three puts at one instant, interleaved with other events due
    then; the consumer schedules same-time work of its own."""

    def consume(item):
        log.append(("got", item, sim.now))
        if item == "a":
            late = sim.event(name="after-a")
            late.add_callback(lambda _e: log.append(("after-a", sim.now)))
            late.succeed()

    def burst_one(_e):
        inbox.put("a")
        other = sim.event(name="other-1")
        other.add_callback(lambda _e: log.append(("other-1", sim.now)))
        other.succeed()
        inbox.put("b")

    def burst_two(_e):
        other = sim.event(name="other-2")
        other.add_callback(lambda _e: log.append(("other-2", sim.now)))
        other.succeed()
        inbox.put("c")

    sim.timeout(1e-6).add_callback(burst_one)
    sim.timeout(1e-6).add_callback(burst_two)
    return consume


def _run_reference():
    sim = Simulation()
    rec = sim.recorder = _Names()
    log = []
    ch = Channel(sim, name="inbox:1:default")
    consume = _scenario(sim, ch, log)

    def loop():
        while True:
            consume((yield ch.get()))

    sim.spawn(loop(), name="ref")
    sim.run()
    return log, rec.stream()


def _run_port():
    sim = Simulation()
    rec = sim.recorder = _Names()
    log = []
    port = Port(sim, name="inbox:1:default")
    port.serve(_scenario(sim, port, log))
    sim.run()
    return log, rec.stream()


def test_port_delivers_as_the_reference_loop_does():
    ref_log, ref_stream = _run_reference()
    log, stream = _run_port()
    assert [e[1] for e in log if e[0] == "got"] == ["a", "b", "c"]
    assert log == ref_log
    # The same events at the same instants, minus the process start.
    assert stream == [e for e in ref_stream if e[1] != "start:ref"]
    gets = [name for _t, name in stream if name.startswith("get:")]
    assert gets == ["get:inbox:1:default"] * 3


def test_port_without_consumer_queues_and_serve_drains():
    sim = Simulation()
    port = Port(sim, name="p")
    port.put(1)
    port.put(2)
    assert port.peek_all() == [1, 2] and len(port) == 2
    got = []
    port.serve(got.append)
    assert len(port) == 1           # the first item rides its event
    sim.run()
    assert got == [1, 2] and len(port) == 0
    assert sim.event_count == 2


class _Echo(CommsModule):
    name = "echo"

    def req_ping(self, msg):
        self.respond(msg, {"rank": self.rank})


def _session(n=3, modules=()):
    cluster = make_cluster(n, seed=1)
    return cluster, CommsSession(cluster, modules=list(modules)).start()


def test_item_reaching_a_stopped_broker_is_dropped():
    cluster, session = _session(modules=[ModuleSpec(_Echo)])
    broker = session.brokers[1]
    port = broker._inbox
    msg = Message.request("echo.ping", {}, 2)
    msg.ctx = None       # one-way: the dispatch itself is what we watch
    port.put((PLANE_TREE, msg))      # armed: its event is due now
    broker.stop()
    handled = broker.requests_handled
    cluster.sim.run()
    assert broker.requests_handled == handled
    assert broker.inbox_depth == 0
    # Later traffic never reaches the closed port.
    dropped = cluster.network.dropped
    session.brokers[0].send_hop(1, "echo.ping", {})
    cluster.sim.run()
    assert cluster.network.dropped == dropped + 1
    assert broker.requests_handled == handled


def test_broker_start_costs_no_event():
    cluster = make_cluster(4, seed=1)
    CommsSession(cluster).start()
    cluster.sim.run()
    assert cluster.sim.event_count == 0


# ----------------------------------------------------------------------
# topic-indexed subscriptions
# ----------------------------------------------------------------------
def test_overlapping_prefixes_fire_in_registration_order():
    cluster, session = _session()
    root = session.brokers[0]
    seen = []
    root.subscribe("kvs.setroot", lambda m: seen.append("exact"))
    root.subscribe("kvs.", lambda m: seen.append("prefix"))
    root.subscribe("kvs.setroot", lambda m: seen.append("exact-2"))
    root.subscribe("kvs.other", lambda m: seen.append("other"))
    root.publish("kvs.setroot", {})
    assert seen == ["exact", "prefix", "exact-2"]


def test_subscription_after_first_delivery_sees_the_next():
    cluster, session = _session()
    root = session.brokers[0]
    seen = []

    def a(m):
        seen.append(("a", m.payload["n"]))

    def b(m):
        seen.append(("b", m.payload["n"]))

    root.subscribe("t.", a)
    root.publish("t.x", {"n": 1})
    root.subscribe("t.x", b)
    root.publish("t.x", {"n": 2})
    root.unsubscribe("t.", a)
    root.publish("t.x", {"n": 3})
    assert seen == [("a", 1), ("a", 2), ("b", 2), ("b", 3)]


def test_unsubscribing_mid_delivery_leaves_that_delivery_whole():
    cluster, session = _session()
    root = session.brokers[0]
    seen = []

    def first(m):
        seen.append("first")
        root.unsubscribe("t.", first)
        root.unsubscribe("t.", second)

    def second(m):
        seen.append("second")

    def third(m):
        seen.append("third")

    for fn in (first, second, third):
        root.subscribe("t.", fn)
    root.publish("t.x", {})
    assert seen == ["first", "second", "third"]
    root.publish("t.x", {})
    assert seen == ["first", "second", "third", "third"]


def test_wait_event_fires_once():
    cluster, session = _session()
    handle = session.connect(2, collective=False)
    broker = session.brokers[2]
    before = len(broker._subs)
    ev = handle.wait_event("t.")
    fired = []
    ev.add_callback(lambda e: fired.append(e.value.payload["n"]))
    session.brokers[0].publish("t.x", {"n": 1})
    session.brokers[0].publish("t.x", {"n": 2})
    cluster.sim.run()
    session.brokers[0].publish("t.x", {"n": 3})
    cluster.sim.run()
    assert fired == [1]
    assert len(broker._subs) == before
