"""Content-addressable object store (CAS) for the Flux KVS.

The paper borrows from ZFS and git: "JSON objects are placed in a
content-addressable object store, hashed by their SHA1 digests".  Two
object kinds exist:

- **value objects** — ``{"v": <json value>}`` wrapping a stored value;
- **directory objects** — ``{"d": {name: sha, ...}}`` mapping child
  names to the SHA1 references of other objects.

Because an object's id is the SHA1 of its canonical encoding, identical
values stored by different producers collapse to one object — the
property that makes redundant-value fences cheap in Figure 3.
"""

from __future__ import annotations

from typing import Any, Optional

from ..jsonutil import canonical_size, sha1_of

__all__ = [
    "make_val_obj", "make_dir_obj", "make_link_obj", "is_dir_obj",
    "is_val_obj", "is_link_obj", "link_of", "dir_entries", "val_of",
    "obj_size", "ObjectStore", "EMPTY_DIR", "EMPTY_DIR_SHA",
]


def make_val_obj(value: Any) -> dict:
    """Wrap a JSON value into a storable value object."""
    return {"v": value}


def make_dir_obj(entries: Optional[dict[str, str]] = None) -> dict:
    """Build a directory object from a ``name -> sha`` mapping."""
    return {"d": dict(entries or {})}


def is_dir_obj(obj: dict) -> bool:
    """True for directory objects."""
    return isinstance(obj, dict) and "d" in obj


def is_val_obj(obj: dict) -> bool:
    """True for value objects."""
    return isinstance(obj, dict) and "v" in obj


def make_link_obj(prefix: str, rank: int) -> dict:
    """Build an ownership *link object*: a leaf the root master binds at
    a delegated subtree's path so cross-subtree reads still compose into
    one hash tree.  A walk that lands on a link re-routes the lookup to
    the owning rank's delegate master (the authoritative store for that
    namespace)."""
    return {"l": {"prefix": prefix, "rank": rank}}


def is_link_obj(obj: dict) -> bool:
    """True for ownership link objects."""
    return isinstance(obj, dict) and "l" in obj


def link_of(obj: dict) -> dict:
    """The ``{"prefix", "rank"}`` target of a link object."""
    if not is_link_obj(obj):
        raise TypeError(f"not a link object: {obj!r}")
    return obj["l"]


def dir_entries(obj: dict) -> dict[str, str]:
    """The ``name -> sha`` mapping of a directory object."""
    if not is_dir_obj(obj):
        raise TypeError(f"not a directory object: {obj!r}")
    return obj["d"]


def val_of(obj: dict) -> Any:
    """The value wrapped by a value object."""
    if not is_val_obj(obj):
        raise TypeError(f"not a value object: {obj!r}")
    return obj["v"]


def obj_size(obj: dict) -> int:
    """Canonical-encoding byte size of an object (network accounting)."""
    return canonical_size(obj)


#: The canonical empty directory — the initial KVS root everywhere.
EMPTY_DIR = make_dir_obj()
EMPTY_DIR_SHA = sha1_of(EMPTY_DIR)


class ObjectStore:
    """A SHA1-keyed object dictionary.

    Used both as the master's authoritative store and as the slaves'
    cache backing (:mod:`repro.kvs.cache` adds the expiry policy).

    Stored objects are immutable by contract (their id is the hash of
    their encoding), so an object's canonical byte size is a function
    of its sha: :meth:`put_obj` hashes through
    :func:`~repro.jsonutil.digest_and_size`, which records the size in
    the process-wide content-addressed table that
    :func:`~repro.jsonutil.size_by_sha` answers from.
    """

    __slots__ = ("_objects", "_journal")

    def __init__(self):
        self._objects: dict[str, dict] = {EMPTY_DIR_SHA: EMPTY_DIR}
        #: Optional capture dict for *newly stored* objects.  The
        #: replicated-master commit log wraps each commit in
        #: :meth:`begin_journal`/:meth:`end_journal` so the streamed
        #: record carries exactly the objects the commit introduced
        #: (value objects ingested plus directories rebuilt) — pure
        #: bookkeeping, no effect on store contents.
        self._journal: Optional[dict[str, dict]] = None

    def begin_journal(self) -> None:
        """Start capturing newly stored objects (see ``_journal``)."""
        self._journal = {}

    def end_journal(self) -> dict[str, dict]:
        """Stop capturing; returns ``{sha: obj}`` of everything newly
        stored since :meth:`begin_journal`."""
        captured, self._journal = self._journal, None
        return captured if captured is not None else {}

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, sha: str) -> bool:
        return sha in self._objects

    def get(self, sha: str) -> Optional[dict]:
        """The object stored under ``sha``, or None."""
        return self._objects.get(sha)

    def put_obj(self, obj: dict) -> str:
        """Store ``obj``; returns its SHA1 id (idempotent).

        Serializes exactly once: the sha and the byte size (recorded
        for :func:`~repro.jsonutil.size_by_sha`) come from the same
        canonical encoding.
        """
        sha = sha1_of(obj)
        if sha not in self._objects:
            self._objects[sha] = obj
            if self._journal is not None:
                self._journal[sha] = obj
        return sha

    def put_with_sha(self, sha: str, obj: dict, *,
                     verify: bool = False) -> None:
        """Store an object under a caller-supplied sha (already hashed
        upstream).  ``verify=True`` re-hashes to detect corruption.
        """
        if verify and sha1_of(obj) != sha:
            raise ValueError(f"object does not hash to {sha}")
        if sha not in self._objects:
            self._objects[sha] = obj
            if self._journal is not None:
                self._journal[sha] = obj

    def shas(self) -> list[str]:
        """All stored object ids (testing / introspection)."""
        return list(self._objects)

    def discard(self, sha: str) -> None:
        """Drop an object if present (cache eviction)."""
        self._objects.pop(sha, None)
