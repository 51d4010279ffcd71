"""Canonical JSON encoding shared by the CMB and the KVS.

Every CMB message carries a JSON payload frame and every KVS object is
a JSON document; both the network cost model (message sizes) and the
content-addressed store (SHA1 of the encoding) need a *canonical*
byte encoding: deterministic key order, no whitespace.

This mirrors the paper's design, where messages have "a header frame
and a JSON frame" and KVS objects are "hashed by their SHA1 digests".

Hot-path discipline (see DESIGN.md "Performance engineering"): each
KVS object is serialized once.  :func:`digest_and_size` takes its sha
and its size from that one encoding and records ``sha -> size`` in a
bounded content-addressed table, so every later sizing of the object —
on any rank, at any tree level — is :func:`size_by_sha`, one probe.
Plain strings are checked for escapes with one ``bytes.translate``
pass, and a one-entry dict of plain ASCII strings (a value object of a
string value, a ``{"sha": ...}`` reply) is encoded by concatenation;
the module-level encoder is the general case.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any

__all__ = ["canonical_dumps", "canonical_size", "sha1_of",
           "digest_and_size", "size_by_sha", "json_loads",
           "intern_fragment", "interned_size", "set_interning",
           "intern_stats", "clear_intern_table"]

#: The one canonical encoder (sorted keys, compact, UTF-8 verbatim).
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False).encode


def canonical_dumps(obj: Any) -> bytes:
    """Encode ``obj`` as canonical JSON bytes (sorted keys, compact)."""
    if type(obj) is dict and len(obj) == 1:
        for k, v in obj.items():
            # A string encoded in exactly two bytes more than its length
            # is plain ASCII (an escape or a multi-byte character adds
            # more): concatenate it verbatim between the quotes.
            if (type(k) is str and type(v) is str
                    and _str_size(k) == len(k) + 2
                    and _str_size(v) == len(v) + 2):
                return ('{"' + k + '":"' + v + '"}').encode()
    return _encode(obj).encode()


#: The bytes JSON escapes inside a string (``ensure_ascii=False``).
#: All are below 0x80 and no UTF-8 lead or continuation byte is, so a
#: string's encoding contains none of them exactly when the string needs
#: no escaping: its encoded size is then its UTF-8 length plus quotes.
_ESCAPED = b'"\\' + bytes(range(0x20))

#: Memoized encoded lengths of vocabulary-length strings.  Payload
#: vocabularies are small and endlessly repeated (field names, topics,
#: SHA1 hex ids), so the memo turns per-string escaping analysis into
#: one dict probe.  Longer strings — stored values — are measured each
#: time (one ``translate`` pass) and never pinned here.  Append-only
#: with a generous cap; entries past the cap are computed uncached.
_str_sizes: dict[str, int] = {}
_STR_SIZE_CAP = 65536
_STR_MEMO_LEN = 128


def _str_size(s: str) -> int:
    size = _str_sizes.get(s)
    if size is None:
        b = s.encode()
        if len(b.translate(None, _ESCAPED)) == len(b):
            size = len(b) + 2
        else:
            size = len(_encode(s).encode())
        if len(s) <= _STR_MEMO_LEN and len(_str_sizes) < _STR_SIZE_CAP:
            _str_sizes[s] = size
    return size


#: Content-addressed sizes: ``sha -> canonical byte size`` of every
#: object :func:`digest_and_size` serialized.  An entry is a pure
#: function of its sha, shared by every rank's store; FIFO-bounded, so
#: an evicted entry costs one re-measure, never a wrong size.
_sha_sizes: "OrderedDict[str, int]" = OrderedDict()
_SHA_SIZE_CAP = 65536


def _record_size(sha: str, size: int) -> None:
    _sha_sizes[sha] = size
    if len(_sha_sizes) > _SHA_SIZE_CAP:
        _sha_sizes.popitem(last=False)


def size_by_sha(sha: str, obj: Any) -> int:
    """Canonical byte size of ``obj``, whose SHA1 id is ``sha``: one
    probe of the content-addressed table, else measured and recorded."""
    size = _sha_sizes.get(sha)
    if size is None:
        size = canonical_size(obj)
        _record_size(sha, size)
    return size


#: Fragment intern table: ``id(frozen container) -> (obj, size, sha)``.
#: Holds a *strong* reference to each interned object, so an id can
#: never be recycled while its entry is alive (no aliasing after garbage
#: collection); the ``ent[0] is obj`` identity check on probe is
#: belt-and-braces.  Only *frozen* fragments may be interned —
#: containers that no code path
#: mutates after registration (e.g. a fence aggregate's ops list after
#: it has been swapped out for flushing).  LRU-bounded: evicting an
#: entry drops the reference and the memoized size together.
_interned: "OrderedDict[int, tuple[Any, int, Any]]" = OrderedDict()
_INTERN_CAP = 8192
_interning = True
_intern_hits = 0
_intern_bytes = 0


def intern_fragment(obj: Any, size: int = None, *, sha: str = None) -> Any:
    """Register a frozen dict/list so later sizings are one probe.

    ``size`` MUST be the object's exact canonical byte size when
    supplied (an off-by-one would silently shift every simulated
    timeline downstream); omitted, it is measured here once.  ``sha``
    optionally memoizes the canonical SHA1 for :func:`digest_and_size`.
    Returns ``obj`` for call-chaining.  No-op while interning is
    disabled (:func:`set_interning`).
    """
    if not _interning or type(obj) not in (dict, list):
        return obj
    if size is None:
        size = canonical_size(obj)
    _interned[id(obj)] = (obj, size, sha)
    if len(_interned) > _INTERN_CAP:
        _interned.popitem(last=False)
    return obj


def interned_size(obj: Any) -> "int | None":
    """Memoized canonical size of ``obj``, or None if not interned."""
    ent = _interned.get(id(obj))
    if ent is not None and ent[0] is obj:
        return ent[1]
    return None


def set_interning(enabled: bool) -> None:
    """Enable/disable the fragment intern table (A/B equivalence runs).

    Disabling clears the table, so every probe misses and every sizing
    re-walks — byte-for-byte the same results, just slower.
    """
    global _interning
    _interning = bool(enabled)
    if not enabled:
        _interned.clear()


def intern_stats() -> dict:
    """Intern-table effectiveness counters (for benches/tests)."""
    return {"entries": len(_interned), "hits": _intern_hits,
            "bytes_saved": _intern_bytes}


def clear_intern_table() -> None:
    """Drop all interned fragments (test isolation)."""
    global _intern_hits, _intern_bytes
    _interned.clear()
    _intern_hits = 0
    _intern_bytes = 0


def _intern_probe(obj: Any) -> "int | None":
    global _intern_hits, _intern_bytes
    ent = _interned.get(id(obj))
    if ent is not None and ent[0] is obj:
        _intern_hits += 1
        _intern_bytes += ent[1]
        return ent[1]
    return None


def canonical_size(obj: Any) -> int:
    """Byte length of the canonical encoding (message cost accounting).

    Computed arithmetically — container framing plus element sizes —
    without materializing the encoding; exact types it does not model
    (str/int/float subclasses, non-string dict keys, NaN/Infinity)
    fall back to measuring a real :func:`canonical_dumps`.  Exactness
    against the real encoding is asserted by the test suite: message
    latencies are derived from these sizes, so an off-by-one here
    would silently change every simulated timeline.
    """
    t = type(obj)
    sizes = _str_sizes
    if t is str:
        return sizes.get(obj) or _str_size(obj)
    if t is int:
        return len(repr(obj))
    if t is dict:
        n = len(obj)
        if n == 0:
            return 2
        if _interned:
            hit = _intern_probe(obj)
            if hit is not None:
                return hit
        total = 1 + n  # braces plus the n-1 inter-entry commas
        for k, v in obj.items():
            if type(k) is not str:
                return len(canonical_dumps(obj))
            tv = type(v)
            total += ((sizes.get(k) or _str_size(k)) + 1
                      + ((sizes.get(v) or _str_size(v)) if tv is str else
                         len(repr(v)) if tv is int else
                         canonical_size(v)))
        return total
    if t is list or t is tuple:
        n = len(obj)
        if n == 0:
            return 2
        if _interned and t is list:
            hit = _intern_probe(obj)
            if hit is not None:
                return hit
        total = 1 + n
        for v in obj:
            tv = type(v)
            total += ((sizes.get(v) or _str_size(v)) if tv is str else
                      len(repr(v)) if tv is int else
                      canonical_size(v))
        return total
    if obj is None:
        return 4
    if t is bool:
        return 4 if obj else 5
    if t is float:
        if obj != obj or obj in (float("inf"), float("-inf")):
            return len(canonical_dumps(obj))
        return len(repr(obj))
    return len(canonical_dumps(obj))


def digest_and_size(obj: Any) -> tuple[str, int]:
    """``(sha1 hex digest, byte size)`` from one canonical serialization
    (one probe when ``obj`` was interned with its sha); the size is
    recorded for :func:`size_by_sha`."""
    if _interned:
        ent = _interned.get(id(obj))
        if ent is not None and ent[0] is obj and ent[2] is not None:
            return (ent[2], ent[1])
    data = canonical_dumps(obj)
    sha = hashlib.sha1(data).hexdigest()
    _record_size(sha, len(data))
    return (sha, len(data))


def sha1_of(obj: Any) -> str:
    """Hex SHA1 digest of the canonical encoding — the KVS object id."""
    return digest_and_size(obj)[0]


def json_loads(data: bytes | str) -> Any:
    """Decode JSON produced by :func:`canonical_dumps`."""
    return json.loads(data)
