"""Unit and property-based tests for the CAS store and hash tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.jsonutil import sha1_of
from repro.kvs.hashtree import (KvsPathError, apply_update, apply_updates,
                                list_dir, lookup, lookup_ref, resolve,
                                split_key)
from repro.kvs.store import (EMPTY_DIR, EMPTY_DIR_SHA, ObjectStore,
                             dir_entries, is_dir_obj, is_val_obj,
                             make_dir_obj, make_link_obj, make_val_obj,
                             obj_size, val_of)


def vput(store, value):
    """Store a value object, returning its sha."""
    return store.put_obj(make_val_obj(value))


class TestObjects:
    def test_val_obj_roundtrip(self):
        obj = make_val_obj({"nested": [1, 2]})
        assert is_val_obj(obj) and not is_dir_obj(obj)
        assert val_of(obj) == {"nested": [1, 2]}

    def test_dir_obj_roundtrip(self):
        obj = make_dir_obj({"a": "sha1", "b": "sha2"})
        assert is_dir_obj(obj) and not is_val_obj(obj)
        assert dir_entries(obj) == {"a": "sha1", "b": "sha2"}

    def test_type_confusion_raises(self):
        with pytest.raises(TypeError):
            val_of(make_dir_obj())
        with pytest.raises(TypeError):
            dir_entries(make_val_obj(1))

    def test_empty_dir_constant(self):
        assert sha1_of(EMPTY_DIR) == EMPTY_DIR_SHA

    def test_obj_size_tracks_content(self):
        assert obj_size(make_val_obj("x" * 100)) > obj_size(make_val_obj("x"))


class TestObjectStore:
    def test_put_get(self):
        store = ObjectStore()
        sha = vput(store, 42)
        assert store.get(sha) == make_val_obj(42)
        assert sha in store

    def test_put_is_idempotent(self):
        store = ObjectStore()
        n0 = len(store)
        sha1 = vput(store, "same")
        sha2 = vput(store, "same")
        assert sha1 == sha2 and len(store) == n0 + 1

    def test_empty_dir_preloaded(self):
        store = ObjectStore()
        assert store.get(EMPTY_DIR_SHA) == EMPTY_DIR

    def test_put_with_sha_verify(self):
        store = ObjectStore()
        obj = make_val_obj(1)
        with pytest.raises(ValueError):
            store.put_with_sha("deadbeef" * 5, obj, verify=True)
        store.put_with_sha(sha1_of(obj), obj, verify=True)
        assert store.get(sha1_of(obj)) == obj

    def test_discard(self):
        store = ObjectStore()
        sha = vput(store, 5)
        store.discard(sha)
        assert store.get(sha) is None
        store.discard(sha)  # idempotent


class TestSplitKey:
    def test_basic(self):
        assert split_key("a.b.c") == ["a", "b", "c"]

    def test_single(self):
        assert split_key("k") == ["k"]

    @pytest.mark.parametrize("bad", ["", ".", "a.", ".a", "a..b"])
    def test_malformed(self, bad):
        with pytest.raises(KvsPathError):
            split_key(bad)


class TestLookup:
    def test_paper_worked_example(self):
        """The Section IV-B walk: store a.b.c = 42, look it up step by
        step through directory objects, then update to 43 and observe a
        brand-new root reference."""
        store = ObjectStore()
        root = apply_update(store, EMPTY_DIR_SHA, "a.b.c", vput(store, 42))
        # Manual 4-step lookup, as in the paper.
        a_sha = dir_entries(store.get(root))["a"]
        b_sha = dir_entries(store.get(a_sha))["b"]
        c_sha = dir_entries(store.get(b_sha))["c"]
        assert val_of(store.get(c_sha)) == 42
        # Update produces a completely new root.
        root2 = apply_update(store, root, "a.b.c", vput(store, 43))
        assert root2 != root
        assert lookup(store, root2, "a.b.c") == 43
        # The old tree is still intact (content addressing).
        assert lookup(store, root, "a.b.c") == 42

    def test_missing_key(self):
        store = ObjectStore()
        with pytest.raises(KvsPathError):
            lookup(store, EMPTY_DIR_SHA, "nope")

    def test_value_blocking_path(self):
        store = ObjectStore()
        root = apply_update(store, EMPTY_DIR_SHA, "a", vput(store, 1))
        with pytest.raises(KvsPathError):
            lookup(store, root, "a.b")

    def test_lookup_directory_returns_listing(self):
        store = ObjectStore()
        root = apply_update(store, EMPTY_DIR_SHA, "d.x", vput(store, 1))
        root = apply_update(store, root, "d.y", vput(store, 2))
        assert lookup(store, root, "d") == {"__dir__": ["x", "y"]}

    def test_list_dir_root(self):
        store = ObjectStore()
        root = apply_update(store, EMPTY_DIR_SHA, "top", vput(store, 1))
        assert set(list_dir(store, root, "")) == {"top"}

    def test_resolve_resumes_at_each_miss(self):
        master = ObjectStore()
        root = apply_update(master, EMPTY_DIR_SHA, "a.b", vput(master, 7))
        # A slave with an empty store faults each object in and resumes
        # the walk where it stopped, without probing for it again.
        slave = ObjectStore()
        probes, faulted = [], []

        def get(sha):
            probes.append(sha)
            return slave.get(sha)

        parts = split_key("a.b")
        kind, i, sha, obj = resolve(get, root, parts, False)
        while kind == "miss":
            faulted.append((i, sha))
            obj = master.get(sha)
            slave.put_with_sha(sha, obj)
            kind, i, sha, obj = resolve(get, sha, parts, False, i, obj)
        assert (kind, i, val_of(obj)) == ("obj", 2, 7)
        assert [d for d, _sha in faulted] == [0, 1, 2]
        assert probes == [s for _d, s in faulted]   # one probe per object
        # Warm: the same walk resolves at once, and a ref stops short of
        # the terminal object.
        assert resolve(slave.get, root, parts, False)[0] == "obj"
        assert resolve(slave.get, root, parts, True) == ("ref", 2, sha, None)

    def test_resolve_stops_at_a_link(self):
        store = ObjectStore()
        link = store.put_obj(make_link_obj("job.1", 3))
        root = apply_update(store, EMPTY_DIR_SHA, "job.1", link)
        kind, i, sha, obj = resolve(store.get, root, ["job", "1", "x"], False)
        assert (kind, i, sha, obj) == ("link", 2, link, store.get(link))
        # want_ref on the link's own key names it without loading it.
        assert resolve(store.get, root, ["job", "1"], True)[0] == "ref"
        with pytest.raises(KvsPathError, match="link to another master"):
            lookup(store, root, "job.1.x")

    def test_lookup_without_fetch_raises_on_missing(self):
        master = ObjectStore()
        root = apply_update(master, EMPTY_DIR_SHA, "a", vput(master, 1))
        with pytest.raises(KeyError):
            lookup(ObjectStore(), root, "a")


class TestApplyUpdates:
    def test_unlink(self):
        store = ObjectStore()
        root = apply_update(store, EMPTY_DIR_SHA, "k", vput(store, 1))
        root = apply_update(store, root, "k", None)
        with pytest.raises(KvsPathError):
            lookup(store, root, "k")

    def test_value_replaces_directory(self):
        store = ObjectStore()
        root = apply_update(store, EMPTY_DIR_SHA, "a.b", vput(store, 1))
        root = apply_update(store, root, "a", vput(store, "flat"))
        assert lookup(store, root, "a") == "flat"
        with pytest.raises(KvsPathError):
            lookup(store, root, "a.b")

    def test_directory_replaces_value(self):
        store = ObjectStore()
        root = apply_update(store, EMPTY_DIR_SHA, "a", vput(store, 1))
        root = apply_update(store, root, "a.b", vput(store, 2))
        assert lookup(store, root, "a.b") == 2

    def test_batched_empty_ops_keeps_root(self):
        store = ObjectStore()
        root = apply_update(store, EMPTY_DIR_SHA, "k", vput(store, 1))
        assert apply_updates(store, root, []) == root

    def test_batched_value_then_deeper_destroys_old_siblings(self):
        store = ObjectStore()
        root = apply_update(store, EMPTY_DIR_SHA, "a.d", vput(store, 1))
        # In one batch: bind a to a value, then write under it.
        root2 = apply_updates(store, root, [
            ("a", vput(store, 9)), ("a.c", vput(store, 2))])
        assert lookup(store, root2, "a.c") == 2
        with pytest.raises(KvsPathError):
            lookup(store, root2, "a.d")  # destroyed when a became a value

    def test_batched_matches_sequential(self):
        ops = [("a.b.c", 1), ("a.b.d", 2), ("x", 3), ("a.b.c", 4),
               ("a.b", 5), ("a.b.e", 6), ("x", None)]
        s1, s2 = ObjectStore(), ObjectStore()
        r1 = EMPTY_DIR_SHA
        for key, v in ops:
            r1 = apply_update(s1, r1, key,
                              vput(s1, v) if v is not None else None)
        r2 = apply_updates(
            s2, EMPTY_DIR_SHA,
            [(k, vput(s2, v) if v is not None else None) for k, v in ops])
        assert r1 == r2

    def test_large_batch_single_directory(self):
        store = ObjectStore()
        ops = [(f"kap.o{i}", vput(store, f"v{i}")) for i in range(1000)]
        root = apply_updates(store, EMPTY_DIR_SHA, ops)
        assert lookup(store, root, "kap.o567") == "v567"
        assert len(list_dir(store, root, "kap")) == 1000


# ---------------------------------------------------------------------------
# property-based: the hash tree behaves like a flat dict keyed by path
# ---------------------------------------------------------------------------

_name = st.sampled_from(["a", "b", "c", "d", "e"])
_key = st.lists(_name, min_size=1, max_size=3).map(".".join)
_op = st.tuples(_key, st.one_of(st.none(), st.integers(0, 99)))


def _model_apply(model: dict, key: str, value):
    """Reference semantics over a flat path->value dict."""
    parts = key.split(".")
    # Writing at `key` destroys anything at or under `key`, and any
    # value binding at a strict prefix of `key`.
    for existing in list(model):
        eparts = existing.split(".")
        if eparts[:len(parts)] == parts:
            del model[existing]
        elif parts[:len(eparts)] == eparts:
            del model[existing]
    if value is not None:
        model[key] = value


class TestHashTreeProperties:
    @given(ops=st.lists(_op, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_matches_flat_dict_model(self, ops):
        store = ObjectStore()
        root = EMPTY_DIR_SHA
        model: dict = {}
        for key, value in ops:
            sha = vput(store, value) if value is not None else None
            root = apply_update(store, root, key, sha)
            _model_apply(model, key, value)
        for key, value in model.items():
            assert lookup(store, root, key) == value

    @given(ops=st.lists(_op, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_batched_equals_sequential(self, ops):
        s1, s2 = ObjectStore(), ObjectStore()
        r1 = EMPTY_DIR_SHA
        for key, value in ops:
            sha = vput(s1, value) if value is not None else None
            r1 = apply_update(s1, r1, key, sha)
        r2 = apply_updates(
            s2, EMPTY_DIR_SHA,
            [(k, vput(s2, v) if v is not None else None) for k, v in ops])
        assert r1 == r2

    @given(ops=st.lists(_op, min_size=1, max_size=15), split=st.data())
    @settings(max_examples=100, deadline=None)
    def test_two_batches_equal_one(self, ops, split):
        cut = split.draw(st.integers(0, len(ops)))
        s1, s2 = ObjectStore(), ObjectStore()

        def shas(store, items):
            return [(k, vput(store, v) if v is not None else None)
                    for k, v in items]

        r1 = apply_updates(s1, EMPTY_DIR_SHA, shas(s1, ops))
        r2 = apply_updates(s2, EMPTY_DIR_SHA, shas(s2, ops[:cut]))
        r2 = apply_updates(s2, r2, shas(s2, ops[cut:]))
        assert r1 == r2

    @given(ops=st.lists(_op, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_every_update_changes_root(self, ops):
        """Any (effective) update produces a new root reference — the
        property the paper highlights."""
        store = ObjectStore()
        root = EMPTY_DIR_SHA
        model: dict = {}
        for key, value in ops:
            before_model = dict(model)
            sha = vput(store, value) if value is not None else None
            new_root = apply_update(store, root, key, sha)
            _model_apply(model, key, value)
            if model != before_model:
                assert new_root != root
            root = new_root
