"""Hash-tree path operations over the content-addressable store.

Implements the two walks Section IV-B illustrates:

- **lookup** — split ``a.b.c`` into path components, follow SHA1
  references from the root directory down to the terminal object.
  :func:`resolve` is the only code in the repository that walks a
  path: every read of the namespace — a slave's fault-in get, a
  ``kvs.walk`` item, a delegate master's local answer and the
  store-level :func:`lookup_ref` / :func:`lookup` / :func:`list_dir` —
  calls it, and differs only in what it does when the walk stops at an
  object that is not here or at an ownership link;
- **update** — store the new value object, then rebuild every
  directory along the path bottom-up, producing a brand-new root SHA1
  ("any update results in a new SHA1 root reference").

These are pure functions over an :class:`~repro.kvs.store.ObjectStore`;
the master uses them to apply commits, and tests exercise them directly
against the paper's worked example.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .store import (ObjectStore, dir_entries, is_dir_obj, is_link_obj,
                    make_dir_obj, val_of)

__all__ = ["KvsPathError", "split_key", "resolve", "resolve_stored",
           "lookup_ref", "lookup", "apply_update", "apply_updates",
           "list_dir"]


class KvsPathError(KeyError):
    """A key path could not be resolved (missing component or a value
    object where a directory was expected).

    ``code`` carries the errnum-style RPC error code the KVS service
    reports for this failure (default ``EINVAL``; lookups that walk off
    the tree use ``ENOENT``, lost objects ``EIO``).
    """

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        from ..cmb.errors import EINVAL
        self.code = code if code is not None else EINVAL

    def __str__(self) -> str:
        # The message as given: KeyError's own __str__ repr-quotes it.
        return self.args[0]


def split_key(key: str) -> list[str]:
    """Split ``"a.b.c"`` into components, validating non-emptiness."""
    parts = key.split(".")
    if not key or "" in parts:
        raise KvsPathError(f"malformed key {key!r}")
    return parts


def resolve(get: Callable[[str], Optional[dict]], sha: str,
            parts: list[str], want_ref: bool, i: int = 0,
            obj: Optional[dict] = None
            ) -> tuple[str, int, str, Optional[dict]]:
    """The paper's ``kvs_get`` walk: follow ``parts[i:]`` down from the
    object ``sha``, loading objects with ``get``.

    Returns ``(kind, i, sha, obj)``:

    - ``"obj"`` — ``obj`` is the terminal object, stored under ``sha``;
    - ``"ref"`` — ``sha`` is the terminal reference (``want_ref``: the
      terminal object is not loaded);
    - ``"link"`` — the walk reached the ownership link ``obj`` with
      ``parts[i:]`` still to go: the rest belongs to another master;
    - ``"miss"`` — ``get(sha)`` returned ``None`` at depth ``i``.  A
      caller that obtains the object elsewhere resumes with ``resolve(get,
      sha, parts, want_ref, i, obj)``, which does not probe for it again.

    Raises :class:`KvsPathError` for a missing component (``ENOENT``)
    or a value where a directory is needed.
    """
    n = len(parts)
    while i < n or not want_ref:
        if obj is None:
            obj = get(sha)
            if obj is None:
                return "miss", i, sha, None
        if is_link_obj(obj):
            return "link", i, sha, obj
        if i == n:
            return "obj", i, sha, obj
        if not is_dir_obj(obj):
            raise KvsPathError(
                f"{'.'.join(parts[:i])!r} is not a directory")
        sha = dir_entries(obj).get(parts[i])
        if sha is None:
            raise KvsPathError(f"key {'.'.join(parts)!r} not found",
                               code="ENOENT")
        i += 1
        obj = None
    return "ref", i, sha, None


def resolve_stored(store: ObjectStore, root_sha: str, parts: list[str],
                   want_ref: bool) -> tuple[str, Optional[dict]]:
    """:func:`resolve` against a store that holds the whole namespace (a
    master's): ``(sha, obj)`` of the terminal, and an error where a
    slave would fault an object in or follow a link."""
    kind, i, sha, obj = resolve(store.get, root_sha, parts, want_ref)
    if kind == "miss":
        raise KvsPathError(f"object {sha} not in store", code="ENOENT")
    if kind == "link":
        raise KvsPathError(
            f"{'.'.join(parts[:i])!r} is a link to another master")
    return sha, obj


def lookup_ref(store: ObjectStore, root_sha: str, key: str) -> str:
    """Resolve ``key`` to the SHA1 of its terminal object."""
    return resolve_stored(store, root_sha, split_key(key), True)[0]


def lookup(store: ObjectStore, root_sha: str, key: str) -> Any:
    """Resolve ``key`` and return its value (or a directory listing
    ``{"__dir__": [names...]}`` when the terminal object is a directory).
    """
    _sha, obj = resolve_stored(store, root_sha, split_key(key), False)
    if is_dir_obj(obj):
        return {"__dir__": sorted(dir_entries(obj))}
    return val_of(obj)


def list_dir(store: ObjectStore, root_sha: str, key: str) -> dict[str, str]:
    """Entries of the directory at ``key`` (``""``/``"."`` = root)."""
    parts = [] if key in ("", ".") else split_key(key)
    _sha, obj = resolve_stored(store, root_sha, parts, False)
    if not is_dir_obj(obj):
        raise KvsPathError(f"{key!r} is not a directory")
    return dict(dir_entries(obj))


def apply_update(store: ObjectStore, root_sha: str, key: str,
                 val_sha: Optional[str]) -> str:
    """Rebind ``key`` to the object ``val_sha``; returns the new root SHA1.

    Follows the paper's update walk: intermediate directories are
    created as needed; every directory on the path is re-stored with a
    new SHA1, ending in a new root reference.  Setting ``val_sha`` to
    ``None`` unlinks the key.
    """
    parts = split_key(key)
    # Load the directory chain root -> parent of leaf, creating missing
    # directories (and replacing value objects blocking the path).
    chain: list[dict[str, str]] = []
    sha: Optional[str] = root_sha
    for part in parts[:-1]:
        obj = store.get(sha) if sha is not None else None
        entries = dict(dir_entries(obj)) if obj is not None and is_dir_obj(obj) else {}
        chain.append(entries)
        sha = entries.get(part)
    obj = store.get(sha) if sha is not None else None
    leaf_entries = dict(dir_entries(obj)) if obj is not None and is_dir_obj(obj) else {}
    chain.append(leaf_entries)

    # Rebuild bottom-up.
    if val_sha is None:
        chain[-1].pop(parts[-1], None)
    else:
        chain[-1][parts[-1]] = val_sha
    child_sha = store.put_obj(make_dir_obj(chain[-1]))
    for level in range(len(parts) - 2, -1, -1):
        chain[level][parts[level]] = child_sha
        child_sha = store.put_obj(make_dir_obj(chain[level]))
    return child_sha


def apply_updates(store: ObjectStore, root_sha: str,
                  ops: list[tuple[str, Optional[str]]]) -> str:
    """Apply a batch of ``(key, val_sha)`` bindings; returns new root.

    Semantically identical to applying :func:`apply_update` op by op
    (later bindings of the same key win), but each directory touched by
    the batch is rebuilt exactly once: the bindings are merged into a
    path trie first, then directories are re-stored bottom-up.  This is
    what keeps a fence of many thousands of producers (KAP's sync
    phase) linear in the number of keys rather than quadratic.
    """
    if not ops:
        # The paper's commit always produces a new root reference; an
        # empty commit re-stores the root unchanged.
        return root_sha

    # Trie node: bind = final val_sha / None (unlink) / _UNSET (no direct
    # binding); kids = deeper writes; fresh = an in-batch binding blew
    # away whatever the store had here, so ignore the store's baseline.
    _UNSET = object()

    def new_node() -> dict:
        return {"bind": _UNSET, "kids": {}, "fresh": False}

    trie = new_node()
    for key, val_sha in ops:
        parts = split_key(key)
        node = trie
        for part in parts[:-1]:
            if node["bind"] is not _UNSET:
                # An earlier op bound this position to a value (or
                # unlinked it); writing deeper turns it into a brand-new
                # directory, destroying the store's old contents.
                node["bind"] = _UNSET
                node["fresh"] = True
            node = node["kids"].setdefault(part, new_node())
        leaf = node["kids"].setdefault(parts[-1], new_node())
        leaf["bind"] = val_sha
        leaf["kids"] = {}   # direct binding overrides earlier deeper ops
        leaf["fresh"] = False
        if node["bind"] is not _UNSET:
            node["bind"] = _UNSET
            node["fresh"] = True

    def rebuild(node: dict, dir_sha: Optional[str]) -> Optional[str]:
        """Return the sha for this position after applying the trie node."""
        if node["bind"] is not _UNSET and not node["kids"]:
            return node["bind"]  # plain (re)binding, possibly None=unlink
        obj = (store.get(dir_sha)
               if dir_sha is not None and not node["fresh"] else None)
        entries = (dict(dir_entries(obj))
                   if obj is not None and is_dir_obj(obj) else {})
        for name, kid in node["kids"].items():
            kid_sha = rebuild(kid, entries.get(name))
            if kid_sha is None:
                entries.pop(name, None)
            else:
                entries[name] = kid_sha
        return store.put_obj(make_dir_obj(entries))

    new_root = rebuild(trie, root_sha)
    assert new_root is not None
    return new_root
