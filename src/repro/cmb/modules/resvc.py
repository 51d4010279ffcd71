"""``resvc`` — the per-session resource service (Table I).

"Resources are enumerated in the KVS and allocated when the scheduler
runs an application."

The root instance owns the authoritative free/allocated state for the
session's node-local resources: each session rank starts with its own
node's cores free.  At start it enumerates them into the KVS
(``resource.rank.<r> = {...}``) when the ``kvs`` module is loaded.
``resvc.alloc``/``resvc.free`` RPCs reserve and release cores; the
Flux-instance scheduler (:mod:`repro.sched`) sits above this service.
"""

from __future__ import annotations

from typing import Any

from ..errors import EEXIST, ENOENT, EOVERFLOW
from ..message import Message
from ..module import CommsModule, request_handler

__all__ = ["ResvcModule"]


class ResvcModule(CommsModule):
    """Session resource enumeration and core-level allocation.

    Requests route upstream to the root instance, which is
    authoritative; loading the module only at the root
    (``ModuleSpec(ResvcModule, max_depth=0)``) is equivalent and saves
    leaf memory, per the paper's configurable-depth loading.
    """

    name = "resvc"

    def __init__(self, broker):
        super().__init__(broker)
        session = broker.session
        nodes = session.cluster.nodes
        # rank -> free cores (root instance only is authoritative).
        self.free: dict[int, int] = {
            r: nodes[nid].spec.cores
            for r, nid in enumerate(session.node_ids)}
        # jobid -> {rank: cores}
        self.allocations: dict[Any, dict[int, int]] = {}

    def start(self) -> None:
        if self.is_root:
            self._enumerate()

    def _enumerate(self) -> None:
        kvs = self.broker.modules.get("kvs")
        if kvs is None:
            return
        for r in range(self.broker.session.size):
            node = self.broker.session.cluster.node(
                self.broker.session.node_of_rank(r))
            kvs.local_put("resvc", f"resource.rank.{r}", {
                "cores": node.spec.cores,
                "sockets": node.spec.sockets,
                "memory": node.spec.memory_bytes,
                "hostname": node.hostname,
            })
        kvs.local_commit("resvc")

    # ------------------------------------------------------------------
    @request_handler(required=("jobid", "cores"))
    def req_alloc(self, msg: Message) -> None:
        """Allocate {jobid, cores, ranks?}: ``cores`` total, optionally
        restricted to a candidate rank list; first-fit across ranks."""
        p = msg.payload
        jobid = p["jobid"]
        want = p["cores"]
        candidates = p.get("ranks") or list(range(self.broker.session.size))
        if jobid in self.allocations:
            self.respond(msg, error=f"job {jobid!r} already allocated",
                         code=EEXIST)
            return
        plan: dict[int, int] = {}
        remaining = want
        for r in candidates:
            if remaining <= 0:
                break
            take = min(self.free.get(r, 0), remaining)
            if take > 0:
                plan[r] = take
                remaining -= take
        if remaining > 0:
            self.respond(msg, error=f"insufficient cores for {want}",
                         code=EOVERFLOW)
            return
        for r, n in plan.items():
            self.free[r] -= n
        self.allocations[jobid] = plan
        self.respond(msg, {"jobid": jobid,
                           "alloc": {str(r): n for r, n in plan.items()}})

    @request_handler(required=("jobid",))
    def req_free(self, msg: Message) -> None:
        """Release a job's allocation."""
        jobid = msg.payload["jobid"]
        plan = self.allocations.pop(jobid, None)
        if plan is None:
            self.respond(msg, error=f"no allocation for job {jobid!r}",
                         code=ENOENT)
            return
        for r, n in plan.items():
            self.free[r] += n
        self.respond(msg, {"jobid": jobid})

    def req_status(self, msg: Message) -> None:
        """Free-core inventory and live allocations."""
        self.respond(msg, {
            "free": {str(r): n for r, n in self.free.items()},
            "jobs": sorted(str(j) for j in self.allocations),
        })
