"""Distributed KVS protocol tests: the Section IV-B behaviours —
write-back puts, commits, fences with tree reduction, fault-in gets,
watch, and the three Vogels consistency properties."""

import pytest

from repro.cmb.api import RpcError
from repro.cmb.errors import EINVAL, ENOENT
from repro.cmb.modules import BarrierModule, HeartbeatModule
from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology
from repro.kvs import KvsClient, KvsModule
from repro.sim.cluster import make_cluster
from repro.sim.faults import FaultPlan
from repro.sim.network import NetworkParams

#: Sessions the refusal and reuse tests run on: the paper's loss-free
#: protocol, the hardened one (the heartbeat loaded), and the hardened
#: one over a fabric that drops 1% of the messages between nodes.
PLAIN, HB, HB_LOSS = {}, {"hb": True}, {"hb": True, "drop": 0.01}


def make_kvs_session(n=8, arity=2, expiry=None, hb=False, drop=0.0):
    cluster = make_cluster(n, seed=5)
    if drop:
        cluster.network.fault_plan = FaultPlan(seed=5, drop_rate=drop)
    modules = [ModuleSpec(KvsModule, expiry=expiry),
               ModuleSpec(BarrierModule)]
    if hb:
        modules.append(ModuleSpec(HeartbeatModule, period=0.1,
                                  max_epochs=30))
    session = CommsSession(cluster, topology=TreeTopology(n, arity=arity),
                           modules=modules).start()
    return cluster, session


def run(cluster, *gens):
    procs = [cluster.sim.spawn(g) for g in gens]
    cluster.sim.run()
    for p in procs:
        assert p.ok, f"process failed: {p._exc!r}"
    return [p.value for p in procs]


class TestPutCommitGet:
    def test_put_is_local_until_commit(self):
        cluster, session = make_kvs_session()
        master = session.module_at(0, "kvs").master

        def writer():
            kvs = KvsClient(session.connect(5))
            yield kvs.put("a.b", 1)
            assert master.version == 0  # nothing flushed yet
            yield kvs.commit()
            assert master.version == 1

        run(cluster, writer())

    def test_get_own_write_after_commit(self):
        cluster, session = make_kvs_session()

        def writer():
            kvs = KvsClient(session.connect(7))
            yield kvs.put("deep.nested.key", {"v": [1, 2]})
            yield kvs.commit()
            return (yield kvs.get("deep.nested.key"))

        assert run(cluster, writer()) == [{"v": [1, 2]}]

    def test_cross_node_read_after_wait_version(self):
        cluster, session = make_kvs_session()
        done = {}

        def writer():
            kvs = KvsClient(session.connect(3))
            yield kvs.put("x", "hello")
            resp = yield kvs.commit()
            done["version"] = resp["version"]

        def reader():
            kvs = KvsClient(session.connect(6))
            while "version" not in done:
                yield cluster.sim.timeout(1e-5)
            yield kvs.wait_version(done["version"])
            return (yield kvs.get("x"))

        assert run(cluster, writer(), reader())[1] == "hello"

    def test_get_missing_key_is_rpc_error(self):
        cluster, session = make_kvs_session()

        def reader():
            kvs = KvsClient(session.connect(2))
            with pytest.raises(RpcError, match="not found"):
                yield kvs.get("ghost")
            return "ok"

        assert run(cluster, reader()) == ["ok"]

    def test_unlink_removes_key(self):
        cluster, session = make_kvs_session()

        def writer():
            kvs = KvsClient(session.connect(1))
            yield kvs.put("k", 1)
            yield kvs.commit()
            yield kvs.unlink("k")
            yield kvs.commit()
            with pytest.raises(RpcError, match="not found"):
                yield kvs.get("k")
            return "ok"

        assert run(cluster, writer()) == ["ok"]

    def test_get_dir_listing(self):
        cluster, session = make_kvs_session()

        def writer():
            kvs = KvsClient(session.connect(4))
            yield kvs.put("d.one", 1)
            yield kvs.put("d.two", 2)
            yield kvs.commit()
            return (yield kvs.get_dir("d"))

        assert run(cluster, writer()) == [["one", "two"]]

    def test_get_ref_returns_sha(self):
        cluster, session = make_kvs_session()

        def writer():
            kvs = KvsClient(session.connect(4))
            yield kvs.put("r", "val")
            yield kvs.commit()
            resp = yield kvs.get_ref("r")
            return resp["ref"]

        ref = run(cluster, writer())[0]
        assert len(ref) == 40

    def test_two_clients_same_node_have_separate_dirty_sets(self):
        cluster, session = make_kvs_session()
        order = []

        def client_a():
            kvs = KvsClient(session.connect(3))
            yield kvs.put("a", 1)
            order.append("a-put")
            # Never commits: "a" must not leak via client_b's commit.

        def client_b():
            kvs = KvsClient(session.connect(3))
            yield kvs.put("b", 2)
            yield cluster.sim.timeout(1e-3)
            yield kvs.commit()
            with pytest.raises(RpcError, match="not found"):
                yield kvs.get("a")
            return (yield kvs.get("b"))

        results = run(cluster, client_a(), client_b())
        assert results[1] == 2

    def test_bad_key_rejected_at_put(self):
        cluster, session = make_kvs_session()

        def writer():
            kvs = KvsClient(session.connect(0))
            with pytest.raises(RpcError):
                yield kvs.put("bad..key", 1)
            return "ok"

        assert run(cluster, writer()) == ["ok"]


class TestConsistencyProperties:
    """The three Vogels properties claimed in Section IV-B."""

    def test_read_your_writes(self):
        """A process having updated a data item never accesses an older
        value — even though its slave is weakly consistent."""
        cluster, session = make_kvs_session(n=15)

        def writer():
            kvs = KvsClient(session.connect(14))  # deepest leaf
            for i in range(5):
                yield kvs.put("ryw", i)
                yield kvs.commit()
                value = yield kvs.get("ryw")
                assert value == i, f"stale read {value} after writing {i}"
            return "ok"

        assert run(cluster, writer()) == ["ok"]

    def test_causal_consistency(self):
        """A writes, passes the version to B out of band; B waits for
        that version and must see A's value."""
        cluster, session = make_kvs_session(n=15)
        mailbox = []

        def process_a():
            kvs = KvsClient(session.connect(7))
            yield kvs.put("causal", "from-A")
            resp = yield kvs.commit()
            mailbox.append(resp["version"])  # the out-of-band message

        def process_b():
            kvs = KvsClient(session.connect(13))
            while not mailbox:
                yield cluster.sim.timeout(1e-6)
            yield kvs.wait_version(mailbox[0])
            return (yield kvs.get("causal"))

        assert run(cluster, process_a(), process_b())[1] == "from-A"

    def test_monotonic_reads(self):
        """Once a process saw version v's value it never reads an older
        one, even while updates race."""
        cluster, session = make_kvs_session(n=15)
        seen = []

        def writer():
            kvs = KvsClient(session.connect(3))
            for i in range(10):
                yield kvs.put("mono", i)
                yield kvs.commit()
                yield cluster.sim.timeout(5e-6)

        def reader():
            kvs = KvsClient(session.connect(14))
            for _ in range(30):
                try:
                    value = yield kvs.get("mono")
                    seen.append(value)
                except RpcError:
                    pass  # not yet visible
                yield cluster.sim.timeout(2e-6)

        run(cluster, writer(), reader())
        assert seen == sorted(seen), f"non-monotonic reads: {seen}"

    def test_root_versions_never_applied_out_of_order(self):
        cluster, session = make_kvs_session(n=15)

        def writer(node):
            kvs = KvsClient(session.connect(node))
            for i in range(5):
                yield kvs.put(f"w{node}.{i}", i)
                yield kvs.commit()

        run(cluster, writer(1), writer(8), writer(14))
        for rank in range(15):
            mod = session.module_at(rank, "kvs")
            assert mod.version == 15  # all commits observed everywhere

    def test_get_version_reflects_local_application(self):
        cluster, session = make_kvs_session()

        def writer():
            kvs = KvsClient(session.connect(6))
            v0 = (yield kvs.get_version())["version"]
            yield kvs.put("vv", 1)
            yield kvs.commit()
            v1 = (yield kvs.get_version())["version"]
            assert v1 == v0 + 1
            return "ok"

        assert run(cluster, writer()) == ["ok"]


class TestFence:
    def test_fence_is_collective_commit(self):
        cluster, session = make_kvs_session(n=8)
        N = 16
        master = session.module_at(0, "kvs").master

        def member(i):
            kvs = KvsClient(session.connect(i % 8))
            yield kvs.put(f"fence.k{i}", i)
            yield kvs.fence("f", N)
            # After the fence every member sees every other member's key.
            other = (i + 5) % N
            value = yield kvs.get(f"fence.k{other}")
            assert value == other
            return "ok"

        results = run(cluster, *[member(i) for i in range(N)])
        assert results == ["ok"] * N
        assert master.version == 1  # one combined commit

    def test_redundant_values_reduce_to_one_object(self):
        cluster, session = make_kvs_session(n=8)
        N = 16

        def member(i):
            kvs = KvsClient(session.connect(i % 8))
            yield kvs.put(f"red.k{i}", "same-value-everywhere")
            yield kvs.fence("f", N)

        run(cluster, *[member(i) for i in range(N)])
        master = session.module_at(0, "kvs").master
        # All 16 keys share one content object.
        from repro.kvs.store import make_val_obj
        from repro.jsonutil import sha1_of
        sha = sha1_of(make_val_obj("same-value-everywhere"))
        assert sha in master.store

    def test_fence_bytes_unique_vs_redundant(self):
        """The Figure 3 asymmetry at the transport level: a fence of
        unique values moves far more bytes than redundant ones."""
        def total_bytes(redundant):
            cluster, session = make_kvs_session(n=8)
            N = 16

            def member(i):
                kvs = KvsClient(session.connect(i % 8))
                # Same 512-byte size either way; only redundancy differs.
                value = "R" * 512 if redundant else f"u{i:02d}" + "x" * 508
                yield kvs.put(f"k{i}", value)
                yield kvs.fence("f", N)

            before = cluster.network.total_bytes_sent()
            run(cluster, *[member(i) for i in range(N)])
            return cluster.network.total_bytes_sent() - before

        unique = total_bytes(False)
        redundant = total_bytes(True)
        assert unique > 2 * redundant

    def test_fence_with_pure_consumers(self):
        """Participants without dirty data still synchronize."""
        cluster, session = make_kvs_session(n=4)

        def producer():
            kvs = KvsClient(session.connect(1))
            yield kvs.put("p", 1)
            yield kvs.fence("f", 2)
            return "p"

        def consumer():
            kvs = KvsClient(session.connect(3))
            yield kvs.fence("f", 2)
            return (yield kvs.get("p"))

        assert run(cluster, producer(), consumer()) == ["p", 1]

    def test_two_sequential_fences(self):
        cluster, session = make_kvs_session(n=4)
        N = 8

        def member(i):
            kvs = KvsClient(session.connect(i % 4))
            yield kvs.put(f"r1.k{i}", i)
            yield kvs.fence("f1", N)
            yield kvs.put(f"r2.k{i}", i * 10)
            yield kvs.fence("f2", N)
            return (yield kvs.get(f"r2.k{(i + 1) % N}"))

        results = run(cluster, *[member(i) for i in range(N)])
        assert results == [((i + 1) % N) * 10 for i in range(N)]

    def test_single_rank_session_fence(self):
        cluster, session = make_kvs_session(n=1)

        def solo():
            kvs = KvsClient(session.connect(0))
            yield kvs.put("k", 1)
            yield kvs.fence("f", 1)
            return (yield kvs.get("k"))

        assert run(cluster, solo()) == [1]

    def test_every_call_is_answered_exactly_once(self, fencedata_log):
        """Fence waiters at the master rank are released both by the
        master's own (synchronously delivered) setroot event and by the
        commit finisher: each must still get one answer, not two.  A
        fence this small goes up as one message per complete subtree,
        nowhere near a message's worth."""
        cluster, session = make_kvs_session(n=4)
        N = 8                       # two clients per rank, rank 0 included

        def member(i):
            kvs = KvsClient(session.connect(i % 4))
            yield kvs.put(f"once.k{i}", i)
            yield kvs.fence("once", N)
            return (yield kvs.get(f"once.k{(i + 1) % N}"))

        assert run(cluster, *[member(i) for i in range(N)]) == [
            (i + 1) % N for i in range(N)]
        answered = session.message_counts()[("kvs", "ipc", "response")]
        assert answered == 3 * N    # puts + fences + gets
        # Each origin's share adds its key: rank 1 relays rank 3's too.
        assert [(m.src, m.count, m.accounted) for m in fencedata_log] == [
            (2, 2, 332), (3, 2, 332), (1, 4, 554)]
        assert [m for m in fencedata_log if m.accounted != m.encoded] == []

    @pytest.mark.parametrize("close", ["tool", "twice"])
    def test_fence_after_a_close_relays_the_subtree_once(
            self, close, fencedata_log):
        """Closing a tool handle, or one handle twice, leaves rank 1's
        two fencing processes registered: the fence completes, and rank 1
        relays its subtree in one contribution once both are in."""
        cluster, session = make_kvs_session(n=3)
        handles = [session.connect(1) for _ in range(2)]
        if close == "tool":
            session.connect(1, collective=False).close()
        else:
            extra = session.connect(1)
            extra.close()
            extra.close()

        def member(i):
            kvs = KvsClient(handles[i])
            yield kvs.put(f"c.k{i}", i)
            yield kvs.fence("c", 2)
            return (yield kvs.get(f"c.k{1 - i}"))

        assert run(cluster, member(0), member(1)) == [1, 0]
        assert [(m.src, m.count) for m in fencedata_log] == [(1, 2)]

    def test_nprocs_mismatch_on_one_rank_is_einval(self):
        cluster, session = make_kvs_session(n=4)
        sim = cluster.sim

        def member(i, nprocs, delay):
            kvs = KvsClient(session.connect(3))
            yield kvs.put(f"m.k{i}", i)
            yield sim.timeout(delay)
            return (yield kvs.fence("m", nprocs))["version"]

        def odd_one_out():
            kvs = KvsClient(session.connect(3))
            yield sim.timeout(1e-3)
            with pytest.raises(RpcError, match="inconsistent nprocs") as err:
                yield kvs.fence("m", 3)
            assert err.value.code == EINVAL
            # The pending aggregate is untouched: one of two, waiting.
            census = session.module_at(3, "kvs").waiter_census()
            assert census["fences"]["m"]["nprocs"] == 2
            assert census["fences"]["m"]["total_seen"] == 1
            return "refused"

        assert run(cluster, member(0, 2, 0.0), odd_one_out(),
                   member(1, 2, 2e-3)) == [1, "refused", 1]

    @pytest.mark.parametrize("shape", [PLAIN, HB, HB_LOSS],
                             ids=["plain", "hb", "hb-loss"])
    def test_nprocs_mismatch_across_ranks_fails_the_refused_subtree(
            self, shape):
        """The contradiction is only visible where the contributions
        meet: the parent refuses the child's aggregate, and the child
        fails the requests it holds instead of leaving them to hang."""
        cluster, session = make_kvs_session(n=4, **shape)
        sim = cluster.sim

        def member(rank, nprocs, delay):
            kvs = KvsClient(session.connect(rank))
            yield kvs.put(f"x.k{rank}.{nprocs}", rank)
            yield sim.timeout(delay)
            return (yield kvs.fence("x", nprocs))["version"]

        def odd_one_out():
            kvs = KvsClient(session.connect(2))
            yield sim.timeout(1e-3)
            with pytest.raises(RpcError, match="inconsistent nprocs") as err:
                yield kvs.fence("x", 3)
            assert err.value.code == EINVAL
            assert "x" not in session.module_at(2, "kvs").waiter_census()[
                "fences"]
            return "refused"

        assert run(cluster, member(1, 2, 0.0), odd_one_out(),
                   member(2, 2, 2e-3)) == [1, "refused", 1]
        assert session.module_at(0, "kvs").master.version == 1

    @pytest.mark.parametrize("shape", [PLAIN, HB, HB_LOSS],
                             ids=["plain", "hb", "hb-loss"])
    def test_refusal_reaches_the_subtree_below_the_refused_rank(self, shape):
        """Rank 3's contribution leaves rank 3 at once and is refused
        one level up, where rank 1's flush meets the master's pending
        fence: rank 1 tells rank 3, whose client fails too — instead of
        being acknowledged later by a commit that never held its write."""
        cluster, session = make_kvs_session(n=7, **shape)
        sim = cluster.sim

        def member(rank, nprocs, at):
            kvs = KvsClient(session.connect(rank))
            yield kvs.put(f"x.k{rank}", rank)
            yield sim.timeout(at)
            return (yield kvs.fence("x", nprocs))["version"]

        def refused():
            kvs = KvsClient(session.connect(3))
            yield kvs.put("x.k3", 3)
            yield sim.timeout(1e-3)
            with pytest.raises(RpcError, match="inconsistent nprocs") as err:
                yield kvs.fence("x", 3)
            assert err.value.code == EINVAL
            assert "x" not in session.module_at(3, "kvs").waiter_census()[
                "fences"]
            return "refused"

        def reader():
            kvs = KvsClient(session.connect(5))
            yield kvs.wait_version(1)
            got = [(yield kvs.get("x.k2")), (yield kvs.get("x.k4"))]
            with pytest.raises(RpcError) as err:
                yield kvs.get("x.k3")
            assert err.value.code == ENOENT
            return got

        assert run(cluster, member(2, 2, 0.0), refused(),
                   member(4, 2, 3e-3), reader()) == [
            1, "refused", 1, [2, 4]]
        assert session.module_at(0, "kvs").master.version == 1

    def test_interleaved_fences_straddling_the_window(self):
        """Two named fences whose contributions reach the master rank
        on both sides of its aggregation window: the window timer must
        not complete either early, and each commits exactly once."""
        cluster, session = make_kvs_session(n=4)
        sim = cluster.sim
        root = session.module_at(0, "kvs")

        def member(name, i, rank, at):
            kvs = KvsClient(session.connect(rank))
            yield kvs.put(f"{name}.k{i}", i)
            yield sim.timeout(at)
            version = (yield kvs.fence(name, 4))["version"]
            return name, version, (yield kvs.get(name))["__dir__"]

        def probe():
            yield sim.timeout(4.5e-4)   # windows of the early halves over
            fences = root.waiter_census()["fences"]
            assert {n: f["total_seen"] for n, f in fences.items()} == {
                "a": 2, "b": 2}
            assert root.master.version == 0
            return "pending"

        gens = [member("a", 0, 0, 0.0), member("b", 0, 2, 0.0),
                member("b", 1, 0, 1.5e-4), member("a", 1, 3, 1.5e-4),
                probe(),
                member("a", 2, 1, 6e-4), member("b", 2, 3, 6e-4),
                member("b", 3, 0, 7.5e-4), member("a", 3, 2, 7.5e-4)]
        results = run(cluster, *gens)
        results.remove("pending")
        committed_at = {}
        for name, version, listing in results:
            assert listing == ["k0", "k1", "k2", "k3"]
            committed_at.setdefault(name, set()).add(version)
        assert sorted(map(sorted, committed_at.values())) == [[1], [2]]
        assert root.master.version == 2
        assert root.waiter_census()["fences"] == {}

    @pytest.mark.parametrize("shape", [PLAIN, HB], ids=["plain", "hb"])
    def test_completed_fence_name_is_reusable(self, shape):
        """KAP re-fences one name every iteration: each round is a
        fresh fence — including one with a different ``nprocs``."""
        cluster, session = make_kvs_session(n=4, **shape)

        def member(i):
            kvs = KvsClient(session.connect(i))
            versions = []
            for rnd in range(3):
                yield kvs.put(f"same.r{rnd}.k{i}", i)
                versions.append((yield kvs.fence("same", 4))["version"])
            if i < 2:
                versions.append((yield kvs.fence("same", 2))["version"])
            return versions

        results = run(cluster, *[member(i) for i in range(4)])
        assert results == [[1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3], [1, 2, 3]]


    def test_window_timer_belongs_to_its_aggregate(self):
        """A window timer armed for a completed fence must not flush
        the next fence that reuses the name: round two's lone early
        contribution leaves one window after *its own* arrival (at
        ~171 us), not when round one's timer runs out (at ~104 us)."""
        cluster, session = make_kvs_session(n=2)
        sim = cluster.sim
        root = session.module_at(0, "kvs")

        def member(i, late):
            kvs = KvsClient(session.connect(1))
            versions = [(yield kvs.fence("f", 2))["version"]]
            yield sim.timeout(late)
            versions.append((yield kvs.fence("f", 2))["version"])
            return versions

        def seen_at_root(at):
            yield sim.timeout(at)
            return root.waiter_census()["fences"].get(
                "f", {}).get("total_seen", 0)

        assert run(cluster, member(0, 5e-5), member(1, 3e-4),
                   seen_at_root(1.4e-4), seen_at_root(2e-4)) == [
            [1, 2], [1, 2], 0, 1]
        for rank in (0, 1):
            assert session.module_at(rank, "kvs").waiter_census()[
                "fences"] == {}

    def test_wake_belongs_to_its_aggregate(self, monkeypatch,
                                           fencedata_log):
        """A wake-up armed while the NIC was busy must not flush the
        next fence that reuses the name.  Rank 1's NIC reads busy for a
        millisecond whenever asked, so each 8 KB contribution arms a
        wake; round one completes first (its second client fills the
        subtree), and round two's lone early contribution must wait for
        *its* second client — not leave when round one's wake fires."""
        cluster, session = make_kvs_session(n=2)
        sim = cluster.sim
        broker = session.module_at(1, "kvs").broker
        monkeypatch.setattr(broker, "nic_free_at", lambda: sim.now + 1e-3)

        def member(i, late):
            kvs = KvsClient(session.connect(1))
            versions = []
            for rnd, delay in enumerate((late, 2 * late)):
                yield sim.timeout(delay)
                yield kvs.put(f"r{rnd}.k{i}", f"{i}" * 8192)
                versions.append((yield kvs.fence("f", 2))["version"])
            return versions

        assert run(cluster, member(0, 0.0), member(1, 1.5e-3)) == [
            [1, 2], [1, 2]]
        assert [(m.src, m.count) for m in fencedata_log] == [(1, 2), (1, 2)]
        assert fencedata_log[1].time > 4.5e-3
        assert session.module_at(1, "kvs").waiter_census()["fences"] == {}

    def test_partly_joined_subtree_completes_by_the_window(self):
        """Rank 3 has two clients but one joins: below a message's worth
        the contribution leaves each of ranks 3 and 1 one window after
        it arrived; with a message's worth and idle NICs it leaves at
        once."""
        from repro.kvs.module import _FENCE_WINDOW

        def latency(size):
            cluster, session = make_kvs_session(n=4)
            sim = cluster.sim
            session.connect(3)          # a participant that never joins

            def member(rank):
                kvs = KvsClient(session.connect(rank))
                yield kvs.put(f"k{rank}", "v" * size)
                t0 = sim.now
                yield kvs.fence("f", 2)
                return sim.now - t0, (yield kvs.get("k3"))

            (waited, value), _ = run(cluster, member(3), member(2))
            assert value == "v" * size
            return waited

        assert 2 * _FENCE_WINDOW < latency(64) < 3 * _FENCE_WINDOW
        assert latency(8192) < _FENCE_WINDOW / 2

    @staticmethod
    def _kap_fence(nputs=4, size=2048):
        """The quick ``kap_fence_4k`` shape (16 x 16, four unique 2 KB
        values each by default) on a session the test can look into:
        ``(max fence latency, root sha, {key: value})``."""
        from repro.kap.patterns import make_value, object_key
        nnodes, nprocs = 16, 256
        cluster, session = make_kvs_session(n=nnodes)
        sim = cluster.sim
        waits = []

        def tester(i):
            handle = session.connect(i % nnodes)
            kvs = KvsClient(handle)
            yield handle.barrier("kap.setup", nprocs)
            for gid in range(i * nputs, (i + 1) * nputs):
                yield kvs.put(object_key(gid, None),
                              make_value(gid, size, False))
            t0 = sim.now
            yield kvs.fence("kap.sync", nprocs)
            waits.append(sim.now - t0)

        run(cluster, *[tester(i) for i in range(nprocs)])

        def reader():
            kvs = KvsClient(session.connect(0, collective=False))
            keys = (yield kvs.get("kap"))["__dir__"]
            values = {}
            for key in keys:
                values[key] = yield kvs.get(f"kap.{key}")
            return values

        values, = run(cluster, reader())
        return max(waits), session.module_at(0, "kvs").root_sha, values

    def test_big_fence_streams_self_clocked_and_commits_the_same_tree(
            self, monkeypatch, fencedata_log):
        """Self-clocked relay: 2 MB of unique values no longer wait for
        whole subtrees level by level (0.598 ms that way, 0.372 ms
        streamed), and what is committed is what one flush per complete
        subtree commits.  A small fence is untouched: a leaf whose 16
        clients put one 64-byte value each holds less than a message's
        worth and sends exactly one contribution."""
        import repro.kvs.module as kvs_module
        batch = kvs_module._fence_batch(NetworkParams())
        self._kap_fence(nputs=1, size=64)
        assert [(m.count, m.accounted < batch) for m in fencedata_log
                if m.src == 15] == [(16, True)]

        del fencedata_log[:]
        latency, root_sha, values = self._kap_fence()
        streamed = list(fencedata_log)
        assert latency < 0.38e-3
        assert len(values) == 16 * 16 * 4

        del fencedata_log[:]
        monkeypatch.setattr(kvs_module, "_fence_batch",
                            lambda params: float("inf"))
        slow, whole_sha, whole_values = self._kap_fence()
        assert slow > 0.59e-3 > 0.38e-3 > latency
        assert len(fencedata_log) < len(streamed)
        assert (whole_sha, whole_values) == (root_sha, values)


class TestFaultInAndCaching:
    def test_objects_cached_along_the_chain(self):
        cluster, session = make_kvs_session(n=15)

        def writer():
            kvs = KvsClient(session.connect(0))
            yield kvs.put("shared.obj", "payload")
            yield kvs.commit()

        def reader(rank):
            def gen():
                kvs = KvsClient(session.connect(rank))
                yield kvs.wait_version(1)
                return (yield kvs.get("shared.obj"))
            return gen()

        run(cluster, writer())
        # Deep leaf faults the object in: every ancestor caches it.
        run(cluster, reader(14))
        for rank in (14, 6, 2):  # 14 -> 6 -> 2 -> 0 chain
            mod = session.module_at(rank, "kvs")
            assert mod.cache is not None
            # root dir + shared dir + value all present now
            assert len(mod.cache) >= 3

    def test_second_read_is_local(self):
        cluster, session = make_kvs_session(n=15)

        def writer():
            kvs = KvsClient(session.connect(0))
            yield kvs.put("warm.key", 1)
            yield kvs.commit()

        run(cluster, writer())
        sim = cluster.sim
        spans = []

        def reader():
            kvs = KvsClient(session.connect(14))
            yield kvs.wait_version(1)
            t0 = sim.now
            yield kvs.get("warm.key")
            spans.append(sim.now - t0)
            t0 = sim.now
            yield kvs.get("warm.key")
            spans.append(sim.now - t0)

        run(cluster, reader())
        assert spans[1] < spans[0] / 2  # cache hit skips the chain

    def test_concurrent_faults_coalesce(self):
        cluster, session = make_kvs_session(n=15)

        def writer():
            kvs = KvsClient(session.connect(0))
            yield kvs.put("hot.key", "x" * 1000)
            yield kvs.commit()

        run(cluster, writer())
        master_mod = session.module_at(0, "kvs")
        served_before = master_mod.broker.requests_handled

        def reader():
            kvs = KvsClient(session.connect(14))
            yield kvs.wait_version(1)
            return (yield kvs.get("hot.key"))

        # Many simultaneous readers on the same node: in-flight load
        # coalescing means the upstream chain sees a bounded number of
        # load requests, not one per reader.
        results = run(cluster, *[reader() for _ in range(10)])
        assert all(r == "x" * 1000 for r in results)
        served = master_mod.broker.requests_handled - served_before
        assert served <= 6

    def test_dropcache_forces_refetch(self):
        cluster, session = make_kvs_session(n=4)

        def flow():
            kvs = KvsClient(session.connect(3))
            yield kvs.put("k", 7)
            yield kvs.commit()
            yield kvs.get("k")
            resp = yield kvs.handle.rpc("kvs.dropcache")
            assert resp["evicted"] > 0
            return (yield kvs.get("k"))  # refetched through the chain

        assert run(cluster, flow()) == [7]

    @pytest.mark.parametrize("expiry", [None, 5.0])
    def test_dropcache_evicts_every_unpinned_entry(self, expiry):
        """With and without a last-use clock: everything cached goes
        but the dirty (pinned) objects and the empty directory."""
        cluster, session = make_kvs_session(n=4, expiry=expiry)
        mod = session.module_at(3, "kvs")

        def flow():
            kvs = KvsClient(session.connect(3))
            for i in range(5):
                yield kvs.put(f"d.k{i}", i)
            yield kvs.commit()
            yield kvs.get("d.k2")
            yield kvs.put("d.dirty", "pinned")
            cached = len(mod.cache)
            resp = yield kvs.handle.rpc("kvs.dropcache")
            return cached, resp["evicted"], len(mod.cache)

        [(cached, evicted, left)] = run(cluster, flow())
        assert (evicted, left) == (cached - 2, 2)
        assert (mod.cache._last_used is None) == (expiry is None)

    def test_heartbeat_driven_expiry(self):
        cluster, session = make_kvs_session(n=4, expiry=0.2, hb=True)

        def flow():
            kvs = KvsClient(session.connect(3))
            yield kvs.put("exp.k", 1)
            yield kvs.commit()
            yield kvs.get("exp.k")
            mod = session.module_at(3, "kvs")
            populated = len(mod.cache)
            yield cluster.sim.timeout(1.5)  # many heartbeats idle
            assert len(mod.cache) < populated
            return "ok"

        assert run(cluster, flow()) == ["ok"]

    def test_acknowledged_writes_unpin_and_expire(self):
        """Puts pin their objects only until the commit or fence that
        carries them is acknowledged; afterwards disuse expiry must be
        able to reclaim them (memory is bounded by construction)."""
        cluster, session = make_kvs_session(n=4, expiry=0.5, hb=True)
        mod = session.module_at(3, "kvs")

        def flow():
            kvs = KvsClient(session.connect(3))
            for i in range(50):
                yield kvs.put(f"pin.c{i}", f"committed-{i}")
            assert len(mod.cache._pinned) == 50
            yield kvs.commit()
            for i in range(10):
                yield kvs.put(f"pin.f{i}", f"fenced-{i}")
            yield kvs.fence("pin", 1)
            assert mod.cache._pinned == set()
            yield kvs.put("pin.dirty", "not yet committed")
            yield cluster.sim.timeout(2.0)      # many heartbeats idle
            assert len(mod.cache._pinned) == 1  # the dirty one stays
            assert mod.cache.stats.evictions >= 60
            return (yield kvs.get("pin.c7")), (yield kvs.get("pin.f3"))

        assert run(cluster, flow()) == [("committed-7", "fenced-3")]

    def test_stats_rpc(self):
        cluster, session = make_kvs_session(n=4)

        def flow():
            kvs = KvsClient(session.connect(2))
            yield kvs.put("s", 1)
            yield kvs.commit()
            yield kvs.get("s")
            local = yield kvs.stats()
            remote = yield kvs.stats(rank=0)
            return local, remote

        local, remote = run(cluster, flow())[0]
        assert local["rank"] == 2 and not local["is_master"]
        assert remote["rank"] == 0 and remote["is_master"]


class TestWatch:
    def test_watch_fires_on_change(self):
        cluster, session = make_kvs_session(n=8)
        fired = []

        def watcher():
            kvs = KvsClient(session.connect(6))
            kvs.watch("watched.key", lambda k, v: fired.append((k, v)))
            yield cluster.sim.timeout(1e-3)

        def writer():
            kvs = KvsClient(session.connect(3))
            yield cluster.sim.timeout(2e-4)
            yield kvs.put("watched.key", "v1")
            yield kvs.commit()

        run(cluster, watcher(), writer())
        assert fired == [("watched.key", "v1")]

    def test_watch_does_not_fire_without_change(self):
        cluster, session = make_kvs_session(n=8)
        fired = []

        def watcher():
            kvs = KvsClient(session.connect(6))
            kvs.watch("quiet.key", lambda k, v: fired.append(v))
            yield cluster.sim.timeout(1e-3)

        def writer():
            kvs = KvsClient(session.connect(3))
            yield kvs.put("other.key", 1)
            yield kvs.commit()
            yield kvs.put("other.key2", 2)
            yield kvs.commit()

        run(cluster, watcher(), writer())
        assert fired == []

    def test_watch_directory_fires_on_deep_change(self):
        """Hash-tree organization: a watched directory changes when
        keys under it at any depth change."""
        cluster, session = make_kvs_session(n=8)
        fired = []

        def watcher():
            kvs = KvsClient(session.connect(7))
            kvs.watch("tree", lambda k, v: fired.append(v))
            yield cluster.sim.timeout(1e-3)

        def writer():
            kvs = KvsClient(session.connect(2))
            yield cluster.sim.timeout(2e-4)
            yield kvs.put("tree.a.b.c.leaf", 99)
            yield kvs.commit()

        run(cluster, watcher(), writer())
        assert fired == [{"__dir__": ["a"]}]

    def test_watch_sequence_of_updates(self):
        cluster, session = make_kvs_session(n=4)
        fired = []

        def watcher():
            kvs = KvsClient(session.connect(3))
            kvs.watch("seq", lambda k, v: fired.append(v))
            yield cluster.sim.timeout(5e-3)

        def writer():
            kvs = KvsClient(session.connect(1))
            for i in range(4):
                yield cluster.sim.timeout(5e-4)
                yield kvs.put("seq", i)
                yield kvs.commit()

        run(cluster, watcher(), writer())
        assert fired == [0, 1, 2, 3]

    def test_cancel_stops_callbacks(self):
        cluster, session = make_kvs_session(n=4)
        fired = []

        def flow():
            kvs = KvsClient(session.connect(3))
            w = kvs.watch("c.key", lambda k, v: fired.append(v))
            yield cluster.sim.timeout(1e-4)
            w.cancel()
            writer = KvsClient(session.connect(1))
            yield writer.put("c.key", 1)
            yield writer.commit()
            yield cluster.sim.timeout(1e-3)

        run(cluster, flow())
        assert fired == []

    def test_watch_key_removal_fires_none(self):
        cluster, session = make_kvs_session(n=4)
        fired = []

        def flow():
            kvs = KvsClient(session.connect(2))
            yield kvs.put("gone", 1)
            yield kvs.commit()
            kvs.watch("gone", lambda k, v: fired.append(v))
            yield cluster.sim.timeout(1e-4)
            yield kvs.unlink("gone")
            yield kvs.commit()
            yield cluster.sim.timeout(1e-3)

        run(cluster, flow())
        assert fired == [None]


class TestCommitWaitSync:
    def test_commit_plus_wait_version_synchronizes(self):
        """The KAP 'commit_wait' alternative to fence."""
        cluster, session = make_kvs_session(n=8)
        NP = 8

        def producer(i):
            kvs = KvsClient(session.connect(i))
            yield kvs.put(f"cw.k{i}", i)
            yield kvs.commit()
            yield kvs.wait_version(NP)
            return (yield kvs.get(f"cw.k{(i + 3) % NP}"))

        results = run(cluster, *[producer(i) for i in range(NP)])
        assert results == [(i + 3) % NP for i in range(NP)]
