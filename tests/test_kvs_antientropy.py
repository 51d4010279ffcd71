"""The per-pulse anti-entropy pull (``kvs.getroot`` with ``since``).

Every heartbeat pulse a slave asks its parent for what it lacks: the
child sends ``[version, rank, seq]`` (``[version]`` before its first
digest), and the parent answers ``{}`` when nothing changed,
``{version, rootref}`` when only the root moved, and only the completed
fences recorded after the child's tag when fences completed.  These
tests pin the reply shapes, the repairs the pull exists for (a lost
fence-completion ``setroot``, an interior kill), and the bounds.
"""

import pytest

from repro import make_cluster, standard_session
from repro.cmb.errors import EINVAL, RpcError
from repro.cmb.message import HEADER_BYTES
from repro.kvs import KvsClient
from repro.kvs.module import _COMPLETED_CAP
from repro.sim import FaultPlan

PERIOD = 0.05


def _session(n=7, plan=None):
    """A hardened ``n``-node session (binary tree: 7 nodes = 3 levels)."""
    cluster = make_cluster(n, seed=3)
    cluster.network.fault_plan = plan
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=PERIOD, hb_max_epochs=400)
    return cluster.sim, session.start()


def _tap(kvs):
    """Record ``(request payload, response)`` of every pull ``kvs`` makes."""
    seen = []
    send = kvs._toward_master_cb

    def tapped(topic, payload, callback, **kw):
        if topic == "kvs.getroot":
            def cb(resp, payload=payload):
                seen.append((payload, resp))
                callback(resp)
            return send(topic, payload, cb, **kw)
        return send(topic, payload, callback, **kw)

    kvs._toward_master_cb = tapped
    return seen


def _fences(sim, session, names, ranks=(3, 4, 5, 6)):
    """Each client at ``ranks`` puts and fences once per name; returns
    the simulated time each client's fences returned, per name."""
    released = {name: {} for name in names}

    def client(rank):
        kvs = KvsClient(session.connect(rank), timeout=2.0, retries=4)
        for name in names:
            yield kvs.put(f"{name}.{rank}", rank)
            yield kvs.fence(name, len(ranks))
            released[name][rank] = sim.now

    procs = [sim.spawn(client(r)) for r in ranks]
    while not all(p.triggered for p in procs):
        sim.run(until=sim.now + 0.5)
    assert all(p.ok for p in procs)
    return released


def _kvs(session, rank):
    return session.module_at(rank, "kvs")


def test_idle_pulses_get_empty_replies():
    sim, session = _session()
    _fences(sim, session, ["ae.idle"])
    sim.run(until=sim.now + 4 * PERIOD)
    taps = {r: _tap(_kvs(session, r)) for r in range(1, 7)}
    sim.run(until=sim.now + 10 * PERIOD)
    for rank, seen in taps.items():
        assert len(seen) >= 9, rank
        for payload, resp in seen:
            assert len(payload["since"]) == 3       # [version, rank, seq]
            assert resp.error is None and resp.payload == {}
            assert resp.size() == HEADER_BYTES + 2
    session.stop()


def test_idle_pulses_add_no_kvs_commit_record():
    """A known completion re-learned (from the event, the master's own
    delivery, then a pull) writes one flight record per rank, so idle
    pulses cannot flush the ring's real history out."""
    sim, session = _session()
    _fences(sim, session, ["ae.ring"])
    sim.run(until=sim.now + 4 * PERIOD)

    def commits():
        return [[r[3] for r in b.flight.records() if r[2] == "kvs_commit"]
                for b in session.brokers]

    before = commits()
    assert before == [["ae.ring"]] * 7
    sim.run(until=sim.now + 10 * PERIOD)
    assert commits() == before
    session.stop()


def test_root_move_gets_only_version_and_rootref():
    sim, session = _session()
    _fences(sim, session, ["ae.root"])
    sim.run(until=sim.now + 4 * PERIOD)
    kvs3 = _kvs(session, 3)
    got = []
    # A child one version behind, with a current tag.
    session.brokers[3].rpc_hop_cb(
        1, "kvs.getroot", {"since": [kvs3.version - 1, *kvs3._sync_tag]},
        got.append)
    sim.run(until=sim.now + PERIOD / 10)
    assert got and got[0].error is None
    assert got[0].payload == {"version": kvs3.version,
                              "rootref": kvs3.root_sha}
    session.stop()


def test_one_new_completion_gets_exactly_that_entry():
    sim, session = _session()
    _fences(sim, session, ["ae.one"])
    sim.run(until=sim.now + 4 * PERIOD)
    seen = _tap(_kvs(session, 3))
    _fences(sim, session, ["ae.two"])
    sim.run(until=sim.now + 4 * PERIOD)
    carried = [resp.payload for _req, resp in seen
               if "completed" in resp.payload]
    assert len(carried) == 1
    entry = _kvs(session, 1)._completed["ae.two"]
    assert carried[0]["completed"] == {"ae.two": [entry[0], entry[1]]}
    assert carried[0]["ctag"] == [1, _kvs(session, 1)._completed_seq]
    session.stop()


def test_dropped_completion_setroot_is_repaired_one_pulse_per_level():
    """The fence-completion ``setroot`` is dropped on the link to rank
    1, so ranks 1, 3 and 4 never see it: the held fences at 3 and 4
    are released by two chained pulls (1 from 0, then 3 and 4 from
    1), within one pulse per level."""
    plan = FaultPlan(seed=1)
    sim, session = _session(plan=plan)
    _fences(sim, session, ["ae.warm"])
    master = _kvs(session, 0)
    publish = master._publish_setroot

    def lossy(version, root_sha, fence=None, **kw):
        if fence == "ae.lost":
            plan.drop_next(session.node_of_rank(0), session.node_of_rank(1))
        publish(version, root_sha, fence=fence, **kw)

    master._publish_setroot = lossy
    released = _fences(sim, session, ["ae.lost"])["ae.lost"]
    assert plan.forced_drops == 1
    done_at = min(released.values())            # ranks 5 and 6: the event
    assert released[5] - done_at < PERIOD / 10
    assert released[6] - done_at < PERIOD / 10
    for rank in (3, 4):
        assert PERIOD / 10 < released[rank] - done_at <= 2 * PERIOD + 0.01
    session.stop()


def test_interior_kill_first_pull_to_adopter_gets_whole_digest():
    sim, session = _session()
    _fences(sim, session, ["ae.k1", "ae.k2", "ae.k3"])
    sim.run(until=sim.now + 4 * PERIOD)
    kvs3 = _kvs(session, 3)
    assert kvs3._sync_tag[0] == 1
    seen = _tap(kvs3)
    session.fail_rank(1)
    sim.run(until=sim.now + 1.0)
    adopted = [(req, resp) for req, resp in seen
               if resp.error is None and resp.payload.get("ctag", [1])[0] != 1]
    assert adopted, "no pull reached the adopting parent"
    req, resp = adopted[0]
    assert req["since"][1] == 1                  # the dead parent's tag
    adopter = _kvs(session, resp.payload["ctag"][0])
    assert sorted(resp.payload["completed"]) == sorted(adopter._completed)
    assert {"ae.k1", "ae.k2", "ae.k3"} <= set(resp.payload["completed"])
    session.stop()


def test_completed_digest_stays_bounded_with_its_tags():
    sim, session = _session()
    _fences(sim, session, [f"ae.b{i}" for i in range(200)], ranks=(3, 6))
    sim.run(until=sim.now + 4 * PERIOD)
    assert _kvs(session, 0)._completed_seq >= 200
    for rank in range(7):
        kvs = _kvs(session, rank)
        assert len(kvs._completed) == _COMPLETED_CAP
        tags = [entry[2] for entry in kvs._completed.values()]
        assert tags == sorted(tags) and len(set(tags)) == len(tags)
        assert tags[-1] == kvs._completed_seq
        assert "ae.b199" in kvs._completed
    session.stop()


def test_client_getroot_still_gets_version_and_rootref():
    sim, session = _session()
    _fences(sim, session, ["ae.client"])
    handle = session.connect(4, collective=False)

    def client():
        return (yield handle.rpc("kvs.getroot"))

    proc = sim.spawn(client())
    sim.run(until=sim.now + PERIOD)
    assert proc.triggered and proc.ok
    assert proc.value == {"version": _kvs(session, 4).version,
                          "rootref": _kvs(session, 4).root_sha}
    session.stop()


@pytest.mark.parametrize("since", [5, {}, [], [1, 2], [1, "a", 3]])
def test_malformed_since_is_refused(since):
    sim, session = _session()
    handle = session.connect(4, collective=False)

    def client():
        try:
            yield handle.rpc("kvs.getroot", {"since": since})
        except RpcError as exc:
            return exc.code

    proc = sim.spawn(client())
    sim.run(until=sim.now + PERIOD)
    assert proc.triggered and proc.ok and proc.value == EINVAL
    session.stop()
