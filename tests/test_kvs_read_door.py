"""One read door out of the KVS: whichever way a ``kvs.get`` travels —
faulting objects in, as a combined ``kvs.walk``, through the ownership
table to a delegate master, through the root tree onto a link object, or
out of a warm cache — it is resolved by ``hashtree.resolve`` and rendered
by ``KvsModule._answer_read``, so the same key gives the same payload or
the same ``(errnum, text)`` on every path."""

import pytest

from repro import make_cluster, standard_session
from repro.cmb.errors import EINVAL, ENOENT, RpcError
from repro.jsonutil import sha1_of
from repro.kvs import KvsClient
from repro.kvs.store import make_val_obj

PFX, OWNER = "job.1", 5

#: (key, ref) -> the payload, or the (errnum, text) of the error.
EXPECTED = {
    ("job.1.v", False): {"value": 42},
    ("job.1.d", False): {"dir": ["x", "y"]},
    ("job.1.v", True): {"ref": sha1_of(make_val_obj(42))},
    ("job.1.nope", False): (ENOENT, "key 'job.1.nope' not found"),
    ("job.1.nodir.x", False): (ENOENT, "key 'job.1.nodir.x' not found"),
    ("job.1.nope", True): (ENOENT, "key 'job.1.nope' not found"),
    ("job.1.v.x", False): (EINVAL, "'job.1.v' is not a directory"),
    ("", False): (EINVAL, "malformed key ''"),
    ("job..b", False): (EINVAL, "malformed key 'job..b'"),
}

#: path -> (dedup, delegated, reader rank, reader's owner table emptied).
#: Rank 5 is the owner; rank 3 reaches it through the table; a rank that
#: lost its table walks the root tree and lands on the link object.
PATHS = {
    "fault-in": (False, False, 5, False),
    "walk": (True, False, 5, False),
    "owner": (False, True, OWNER, False),
    "remote": (False, True, 3, False),
    "link": (False, True, 6, True),
    "walk-link": (True, True, 6, True),
}


def _run(cluster, gen):
    return cluster.sim.run_until_complete(cluster.sim.spawn(gen))


def _setup(dedup, delegated, rank, stale):
    cluster = make_cluster(7, seed=1)
    session = standard_session(cluster, kvs_dedup=dedup).start()

    def write():
        kvs = KvsClient(session.connect(0, collective=False))
        yield kvs.put("job.1.v", 42)
        yield kvs.put("job.1.d.x", 1)
        yield kvs.put("job.1.d.y", 2)
        yield kvs.commit()
        if delegated:
            yield kvs.delegate(PFX, OWNER)
        # The reader starts from the root (and table) the writer ended on.
        version = (yield kvs.get_version())["version"]
        yield KvsClient(handle).wait_version(version)

    handle = session.connect(rank, collective=False)
    _run(cluster, write())
    if stale:
        session.module_at(rank, "kvs").owners.clear()
    return cluster, session, handle


def _read(handle, key, ref):
    """The payload of one ``kvs.get`` (less a delegate master's
    ``pver``), or ``(errnum, text)``."""
    try:
        out = yield handle.rpc("kvs.get", {"key": key, "ref": ref},
                               timeout=2.0)
    except RpcError as exc:
        return exc.code, exc.error
    out.pop("pver", None)
    return out


@pytest.mark.parametrize("path", PATHS)
def test_every_read_path_answers_alike(path):
    cluster, _session, handle = _setup(*PATHS[path])

    def reads():
        got = {}
        for key, ref in EXPECTED:
            got[key, ref] = yield from _read(handle, key, ref)
        # Again, now out of whatever the first round cached.
        warm = {}
        for key, ref in EXPECTED:
            warm[key, ref] = yield from _read(handle, key, ref)
        return got, warm

    got, warm = _run(cluster, reads())
    assert got == EXPECTED
    assert warm == EXPECTED


def test_cold_then_warm_get_moves_the_cache_counters_as_before():
    """A three-level get from a cold slave probes the four objects on the
    path once each — the fault-in resumes the walk where it missed, it
    does not probe again — and a warm one hits all four."""
    cluster, session, handle = _setup(*PATHS["fault-in"])
    stats = session.module_at(5, "kvs").cache.stats

    def get():
        return (yield from _read(handle, "job.1.v", False))

    before = stats.as_dict()
    assert _run(cluster, get()) == {"value": 42}
    cold = stats.as_dict()
    assert _run(cluster, get()) == {"value": 42}
    warm = stats.as_dict()

    def delta(a, b):
        return {k: b[k] - a[k] for k in ("hits", "misses", "faults")}

    assert delta(before, cold) == {"hits": 0, "misses": 4, "faults": 4}
    assert delta(cold, warm) == {"hits": 4, "misses": 0, "faults": 0}
    # The interior rank on the way relayed the four loads, probing once.
    assert session.module_at(2, "kvs").cache.stats.faults == 4
