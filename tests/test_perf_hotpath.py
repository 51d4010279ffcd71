"""Unit tests for the hot-path caching machinery.

The perf work (DESIGN.md "Performance engineering") replaces repeated
serialization with arithmetic sizing and memoization.  These tests pin
the exactness contracts each cache relies on:

- :func:`canonical_size` equals ``len(canonical_dumps(obj))`` for the
  payload shapes the system produces *and* for the escaping edge cases
  it must fall back on;
- :func:`digest_and_size` returns the ``(sha, size)`` of one real
  serialization;
- :class:`ObjectStore` sizes match re-serialization;
- the compositional ``objs``-payload sizing identity used by the KVS
  fence path is exact;
- :meth:`Message.copy` / :meth:`Message.make_response` slot-level fast
  paths preserve field semantics and size-cache invalidation.
"""

import hashlib

import pytest

from repro.cmb.message import HEADER_BYTES, Message, MessageType, split_topic
from repro.jsonutil import (canonical_dumps, canonical_size,
                            digest_and_size, sha1_of, size_by_sha)
from repro.kap import KapConfig, run_kap
from repro.kvs.store import ObjectStore, make_dir_obj, make_val_obj


class TestCanonicalSizeExactness:
    CASES = [
        {},
        [],
        (),
        None,
        True,
        False,
        0,
        -17,
        10**40,
        0.5,
        -0.0,
        1e300,
        1.3e-6,
        "",
        "plain",
        'quote " inside',
        "back\\slash",
        "control\x00\x1fchars",
        "unicode: é中文\U0001f600",
        {"k": "v", "a": [1, 2.5, None, True], "nested": {"x": "y"}},
        {"ékey": {"deep": ["\t", "\n", "ok"]}},
        {"objs": {"a" * 40: {"v": "x" * 100}}, "rootdir": "b" * 40,
         "version": 7},
        ["mixed", 1, 2.0, {"d": []}, [[]], False, None],
        {"empty_str_key": "", "": "empty key"},
        # Non-arithmetic shapes must fall back to real serialization.
        float("inf"),
        float("-inf"),
        {1: "non-string key"},
        {"frozen": (1, (2, 3))},
    ]

    @pytest.mark.parametrize("obj", CASES, ids=repr)
    def test_matches_real_encoding(self, obj):
        assert canonical_size(obj) == len(canonical_dumps(obj))

    def test_nan_falls_back(self):
        nan = float("nan")
        assert canonical_size(nan) == len(canonical_dumps(nan))

    def test_memoized_second_call_identical(self):
        obj = {"topic": "kvs.put", "key": "dir.a.b", "value": "x" * 33}
        first = canonical_size(obj)
        assert canonical_size(obj) == first == len(canonical_dumps(obj))


class TestDigestCache:
    def test_matches_direct_hash(self):
        obj = {"v": ["some", "value", 42]}
        data = canonical_dumps(obj)
        assert digest_and_size(obj) == (
            hashlib.sha1(data).hexdigest(), len(data))


class TestObjectStoreSizes:
    def test_put_obj_caches_exact_size(self):
        st = ObjectStore()
        obj = make_val_obj("hello" * 10)
        sha = st.put_obj(obj)
        assert sha == sha1_of(obj)
        assert size_by_sha(sha, st.get(sha)) == canonical_size(obj)

    def test_put_with_sha_lazy_size(self):
        st = ObjectStore()
        obj = make_dir_obj({"a": "0" * 40, "b": "1" * 40})
        sha = sha1_of(obj)
        st.put_with_sha(sha, obj)
        assert size_by_sha(sha, st.get(sha)) == len(canonical_dumps(obj))

    def test_size_of_missing_is_none(self):
        st = ObjectStore()
        assert st.get("f" * 40) is None

    def test_discard_clears_size(self):
        st = ObjectStore()
        sha = st.put_obj(make_val_obj("bye"))
        st.discard(sha)
        assert st.get(sha) is None


class TestObjsPayloadFramingIdentity:
    """The fence path sizes ``{..., "objs": {sha: obj}}`` payloads as
    ``canonical_size(frame with objs={}) + sum(43 + size(obj)) +
    (n - 1)`` — per entry a quoted 40-hex sha (42), a colon (1), and
    one inter-entry comma.  Canonical-JSON sizes are additive, so the
    identity must be exact for any object mix."""

    @pytest.mark.parametrize("nobjs", [1, 2, 5])
    def test_identity(self, nobjs):
        objs = {}
        for i in range(nobjs):
            obj = (make_val_obj("v" * (i + 1) * 7) if i % 2 == 0
                   else make_dir_obj({f"e{i}": "a" * 40}))
            objs[sha1_of(obj)] = obj
        payload = {"rootdir": "c" * 40, "version": 12, "objs": objs}
        composed = canonical_size({**payload, "objs": {}})
        for sha, obj in objs.items():
            composed += 43 + canonical_size(obj)
        composed += len(objs) - 1
        assert composed == canonical_size(payload)
        assert composed == len(canonical_dumps(payload))

    @pytest.mark.parametrize("redundant", [False, True])
    def test_fence_counters_charge_the_exact_encoding(self, fencedata_log,
                                                      redundant):
        """A fence flush adds ``_FenceAgg.ops_size`` and ``objs_size``
        to its frame instead of walking the objects: every message must
        still be charged its real encoding — streamed flushes of unique
        values, and redundant ones, where an object already pending
        must not be counted twice."""
        run_kap(KapConfig(nnodes=16, procs_per_node=16, value_size=2048,
                          nputs=4, nconsumers=1,
                          redundant_values=redundant))
        assert len(fencedata_log) >= 15     # every slave rank flushed
        assert [m for m in fencedata_log if m.accounted != m.encoded] == []


class TestMessageFastPaths:
    def test_copy_preserves_fields_and_size_cache(self):
        msg = Message(topic="kvs.put", payload={"key": "a", "value": 1},
                      src_rank=3)
        size = msg.size()
        dup = msg.copy(hops=msg.hops + 1)
        assert dup.topic == msg.topic
        assert dup.payload is msg.payload
        assert dup.msgid == msg.msgid
        assert dup.hops == msg.hops + 1
        assert dup._size_cache == size  # survives a payload-less copy
        assert dup.size() == size

    def test_copy_with_payload_invalidates_size_cache(self):
        msg = Message(topic="kvs.put", payload={"key": "a"})
        msg.size()
        dup = msg.copy(payload={"key": "a", "value": "x" * 100})
        assert dup._size_cache is None
        assert dup.size() == HEADER_BYTES + canonical_size(dup.payload)

    def test_copy_does_not_carry_delivery_bookkeeping(self):
        msg = Message(topic="kvs.put")
        msg._source = object()
        msg._obs_t0 = 1.5
        dup = msg.copy()
        assert dup._source is None
        assert dup._obs_t0 is None

    def test_make_response_correlates_and_sizes_own_payload(self):
        req = Message(topic="kvs.get", payload={"key": "x"}, src_rank=5)
        req.size()
        resp = req.make_response({"value": "y" * 64})
        assert resp.mtype is MessageType.RESPONSE
        assert resp.msgid == req.msgid
        assert resp.error is None and resp.errnum is None
        assert resp.size() == HEADER_BYTES + canonical_size(resp.payload)

    def test_split_topic_cached_value_is_stable(self):
        assert split_topic("kvs.fence.seq") == ("kvs", "fence.seq")
        assert split_topic("kvs.fence.seq") is split_topic("kvs.fence.seq")
        assert split_topic("modctl") == ("modctl", "")
