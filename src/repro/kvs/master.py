"""The KVS master: authoritative store and commit engine.

One master lives at the root of the CMB tree ("all updates are applied
first on the master node at the root").  It owns the authoritative
object store, the current root SHA1 reference, and the monotonically
increasing root *version* that the consistency protocol hangs off.

It is a commit engine and nothing else: fences are aggregated by the
hosting :class:`~repro.kvs.module.KvsModule`, which hands a completed
fence over as one ordinary commit.

The multi-master extension reuses this same engine in two more roles:

- **delegate master** — an interior broker that was delegated a
  directory subtree instantiates its own :class:`KvsMaster` for that
  namespace (own root ref, own version sequence);
- **standby replica** — the root master streams each commit as a
  :class:`CommitRecord`; a standby applies records in version order
  via :meth:`apply_record` and can be promoted wholesale on failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hashtree import apply_updates, resolve_stored, split_key
from .store import EMPTY_DIR_SHA, ObjectStore, dir_entries, is_dir_obj

__all__ = ["CommitRecord", "CommitResult", "KvsMaster"]


@dataclass(frozen=True)
class CommitResult:
    """Outcome of one master commit: the new root reference/version."""

    root_sha: str
    version: int


@dataclass(frozen=True)
class CommitRecord:
    """One entry of the replicated commit log.

    Carries everything a standby needs to reproduce the commit's
    outcome state: the resulting version/root and the objects the
    commit *newly introduced* (ingested values plus rebuilt
    directories).  ``fence`` names the fence this commit completed, if
    any, so a promoted standby can seed its completed-fence digest.
    """

    version: int
    root_sha: str
    objs: dict
    fence: Optional[str] = None

    def to_wire(self) -> dict:
        """Wire form streamed to replicas."""
        out = {"v": self.version, "root": self.root_sha, "objs": self.objs}
        if self.fence is not None:
            out["fence"] = self.fence
        return out

    @classmethod
    def from_wire(cls, p: dict) -> "CommitRecord":
        return cls(version=p["v"], root_sha=p["root"], objs=p["objs"],
                   fence=p.get("fence"))


class KvsMaster:
    """Authoritative KVS state for one namespace (root or delegated).

    ``start_version`` seeds the version sequence: a delegate master
    adopted mid-session starts at the version its namespace last held,
    keeping per-namespace versions monotonic across ownership moves.
    """

    def __init__(self, start_version: int = 0):
        self.store = ObjectStore()
        self.root_sha: str = EMPTY_DIR_SHA
        self.version: int = start_version
        self.commits: int = 0

    # ------------------------------------------------------------------
    def ingest_objects(self, objs: dict[str, dict]) -> None:
        """Accept content objects flushed from below."""
        for sha, obj in objs.items():
            self.store.put_with_sha(sha, obj)

    def commit(self, ops: list[tuple[str, Optional[str]]]) -> CommitResult:
        """Apply ``(key, val_sha)`` bindings; returns new root + version.

        Every commit produces a fresh root SHA1 and bumps the version
        even when the resulting tree is unchanged, keeping version
        numbers a reliable happens-before token.
        """
        for _key, sha in ops:
            if sha is not None and sha not in self.store:
                raise KeyError(f"commit references unknown object {sha}")
        self.root_sha = apply_updates(self.store, self.root_sha, ops)
        self.version += 1
        self.commits += 1
        return CommitResult(self.root_sha, self.version)

    # ------------------------------------------------------------------
    # replicated commit log (multi-master extension)
    # ------------------------------------------------------------------
    def commit_logged(self, ops: list[tuple[str, Optional[str]]],
                      objs: dict[str, dict]
                      ) -> tuple[CommitResult, CommitRecord]:
        """Ingest ``objs`` and apply ``ops`` as one commit, capturing a
        :class:`CommitRecord` of exactly the objects the commit newly
        stored (for streaming to standby replicas)."""
        self.store.begin_journal()
        try:
            self.ingest_objects(objs)
            res = self.commit(ops)
        finally:
            captured = self.store.end_journal()
        return res, CommitRecord(res.version, res.root_sha, captured)

    def apply_record(self, rec: CommitRecord) -> None:
        """Standby side: reproduce a streamed commit's outcome state.

        Records must be applied in version order (the caller buffers
        out-of-order arrivals); a record at or below the current
        version is a duplicate and is ignored.
        """
        if rec.version <= self.version:
            return
        for sha, obj in rec.objs.items():
            self.store.put_with_sha(sha, obj)
        self.root_sha = rec.root_sha
        self.version = rec.version
        self.commits += 1

    def reachable_objects(self, root_sha: Optional[str] = None
                          ) -> dict[str, dict]:
        """Every object reachable from ``root_sha`` (default: the
        current root) — a full-state snapshot for replica resync and
        subtree transfer at delegation/recall time."""
        out: dict[str, dict] = {}
        stack = [root_sha if root_sha is not None else self.root_sha]
        while stack:
            sha = stack.pop()
            if sha in out:
                continue
            obj = self.store.get(sha)
            if obj is None:
                continue
            out[sha] = obj
            if is_dir_obj(obj):
                stack.extend(sorted(dir_entries(obj).values()))
        return out

    # ------------------------------------------------------------------
    # subtree extraction (ownership delegation)
    # ------------------------------------------------------------------
    def subtree_ref(self, prefix: str) -> Optional[str]:
        """SHA1 of the directory at dotted path ``prefix``, or ``None``
        when the path does not resolve to a directory."""
        try:
            sha, obj = resolve_stored(self.store, self.root_sha,
                                      split_key(prefix), False)
        except KeyError:
            return None
        return sha if is_dir_obj(obj) else None
