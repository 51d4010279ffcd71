"""One serialization per KVS object, and exact sizes on every shortcut.

The sizing fast paths in :mod:`repro.jsonutil` — the ``translate``
escape check, the concatenated one-entry dict, the string memo and the
content-addressed ``sha -> size`` table — must agree byte for byte
with a real canonical encoding, because every simulated latency is
derived from those sizes.  The reference here is the standard library
encoder, independent of the module under test.
"""

import hashlib
import json
import sys
from collections import Counter, OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro import jsonutil
from repro.jsonutil import (_str_size, canonical_dumps, canonical_size,
                            digest_and_size, size_by_sha)
from repro.kap import KapConfig, run_kap
from repro.kvs.module import KvsModule


def ref_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode()


def ref_size(obj):
    return len(ref_dumps(obj))


#: Every character class the encoder treats differently: plain ASCII,
#: the two escaped printables, the control range, DEL (not escaped) and
#: one-, two- and four-byte UTF-8 characters beyond ASCII.
ALPHABET = (['a', 'Z', '0', ' ', '/', '"', '\\', '\x7f', 'é', '中',
             '\U0001f600'] + [chr(c) for c in range(0x20)])

#: Short strings hit the memo; long ones (> ``_STR_MEMO_LEN``) do not.
strings = st.text(alphabet=st.sampled_from(ALPHABET), max_size=300)
plain = st.text(alphabet=st.sampled_from(['a', 'x', '-', '7', '\x7f']),
                max_size=300)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), strings,
                    st.floats(allow_nan=False, allow_infinity=False))


def _kvs_obj(obj):
    return (type(obj) is dict and len(obj) == 1
            and next(iter(obj)) in ("v", "d", "l"))


class TestStringExactness:
    @given(strings)
    @settings(max_examples=300, deadline=None)
    def test_str_size(self, s):
        assert _str_size(s) == ref_size(s)
        assert _str_size(s) == ref_size(s)      # memoized answer too

    @given(strings)
    @settings(max_examples=300, deadline=None)
    def test_dumps(self, s):
        assert canonical_dumps(s) == ref_dumps(s)

    @pytest.mark.parametrize("s", ["", '"', "\\", "\x00", "\x1f", "\x7f",
                                   "é", "x" * 129, "x" * 128 + "\n"])
    def test_edge_strings(self, s):
        assert _str_size(s) == ref_size(s)
        assert canonical_dumps({"v": s}) == ref_dumps({"v": s})


class TestDictExactness:
    @given(strings, strings)
    @settings(max_examples=300, deadline=None)
    def test_one_entry(self, k, v):
        obj = {k: v}
        assert canonical_dumps(obj) == ref_dumps(obj)
        assert canonical_size(obj) == ref_size(obj)

    @given(plain, plain)
    @settings(max_examples=100, deadline=None)
    def test_one_entry_plain(self, k, v):
        assert canonical_dumps({k: v}) == ref_dumps({k: v})

    @given(st.dictionaries(strings, scalars, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_multi_entry(self, obj):
        assert canonical_dumps(obj) == ref_dumps(obj)
        assert canonical_size(obj) == ref_size(obj)
        sha, size = digest_and_size(obj)
        assert (sha, size) == (hashlib.sha1(ref_dumps(obj)).hexdigest(),
                               ref_size(obj))

    @given(st.dictionaries(strings, st.dictionaries(strings, scalars,
                                                    max_size=3),
                           max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_nested(self, obj):
        assert canonical_dumps(obj) == ref_dumps(obj)
        assert canonical_size(obj) == ref_size(obj)


class TestSizeBySha:
    @pytest.fixture(autouse=True)
    def private_table(self, monkeypatch):
        monkeypatch.setattr(jsonutil, "_sha_sizes", OrderedDict())

    def test_hit_answers_without_measuring(self, monkeypatch):
        obj = {"v": "hit" * 300}
        sha, size = digest_and_size(obj)

        def boom(_obj):
            raise AssertionError("a recorded sha was re-measured")

        monkeypatch.setattr(jsonutil, "canonical_size", boom)
        assert size_by_sha(sha, obj) == size == ref_size(obj)

    def test_never_hashed_is_measured_and_recorded(self):
        obj = {"d": {"a": "0" * 40, "é\n": "1" * 40}}
        sha = hashlib.sha1(ref_dumps(obj)).hexdigest()
        assert sha not in jsonutil._sha_sizes
        assert size_by_sha(sha, obj) == ref_size(obj)
        assert jsonutil._sha_sizes[sha] == ref_size(obj)

    def test_eviction_costs_a_remeasure_not_a_wrong_size(self, monkeypatch):
        monkeypatch.setattr(jsonutil, "_SHA_SIZE_CAP", 4)
        objs = [{"v": "e" * n} for n in range(1, 11)]
        shas = [digest_and_size(o)[0] for o in objs]
        assert len(jsonutil._sha_sizes) == 4
        assert shas[0] not in jsonutil._sha_sizes
        for sha, obj in zip(shas, objs):
            assert size_by_sha(sha, obj) == ref_size(obj)
        assert len(jsonutil._sha_sizes) == 4


def _kap_fence(**kw):
    """A 16-node run of the ``kap_fence_4k`` shape (2 KiB unique
    values, four puts per process)."""
    return run_kap(KapConfig(nnodes=16, procs_per_node=16, value_size=2048,
                             nputs=4, **kw))


def test_string_memo_holds_no_payloads():
    _kap_fence(nconsumers=1)
    assert jsonutil._str_sizes
    assert max(map(len, jsonutil._str_sizes)) <= jsonutil._STR_MEMO_LEN


class TestSerializedOnce:
    @pytest.fixture
    def dumps_log(self, monkeypatch):
        """The sha of every KVS object ``canonical_dumps`` encodes."""
        log = Counter()
        real = jsonutil.canonical_dumps

        def spy(obj):
            data = real(obj)
            if _kvs_obj(obj):
                log[hashlib.sha1(data).hexdigest()] += 1
            return data

        monkeypatch.setattr(jsonutil, "canonical_dumps", spy)
        return log

    @pytest.fixture
    def sized_in(self, monkeypatch):
        """Names of the KVS handlers under which a KVS object was
        re-measured with ``canonical_size``."""
        hits = Counter()
        watched = {"req_fencedata", "_load_done"}
        real = jsonutil.canonical_size

        def spy(obj):
            if _kvs_obj(obj):
                f = sys._getframe(1)
                while f is not None:
                    if f.f_code.co_name in watched:
                        hits[f.f_code.co_name] += 1
                        break
                    f = f.f_back
            return real(obj)

        monkeypatch.setattr(jsonutil, "canonical_size", spy)
        monkeypatch.setattr("repro.kvs.module.canonical_size", spy)
        return hits

    @pytest.fixture
    def fetches(self, monkeypatch):
        calls = Counter()
        real = KvsModule._load_done

        def spy(self, batch, resp):
            calls["_load_done"] += 1
            return real(self, batch, resp)

        monkeypatch.setattr(KvsModule, "_load_done", spy)
        return calls

    def test_each_object_hashed_once(self, dumps_log):
        res = _kap_fence(nconsumers=1)
        assert len(dumps_log) >= res.config.total_objects
        assert [sha for sha, n in dumps_log.items() if n != 1] == []

    @pytest.mark.parametrize("nconsumers", [1, None],
                             ids=["fence_shape", "with_fault_in"])
    def test_no_remeasure_on_the_way_up_or_down(self, sized_in, fetches,
                                                nconsumers):
        _kap_fence(nconsumers=nconsumers)
        if nconsumers is None:
            assert fetches["_load_done"] > 0
        assert sized_in == Counter()
