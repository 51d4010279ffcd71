"""Per-job comms sessions for Flux instances.

Section III's communication model: "When a Flux job is created, a
secure, scalable overlay network with common communication service is
established across its allocated nodes.  Except for the root-level
job, the existing communication session of the parent job assists the
child job with rapid creation of its own session."

:class:`CommsConfig` tells a :class:`~repro.core.instance.FluxInstance`
how to build these sessions: which cluster carries them, which comms
modules to load, and how much simulated time session bring-up costs —
cheaper when a parent session assists (the paper's rapid creation)
than for a cold root-level bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..cmb.modules import (BarrierModule, GroupModule, HeartbeatModule,
                           LiveModule, LogModule, ResvcModule,
                           WexecModule)
from ..cmb.modules.jobmgr import JobManagerModule
from ..cmb.session import CommsSession, ModuleSpec
from ..cmb.topology import TreeTopology
from ..kvs.module import KvsModule
from ..sim.cluster import Cluster

__all__ = ["CommsConfig"]

#: Bring-up cost of a *root-level* session (seconds, base + per node):
#: daemons start without an assisting parent (think: ssh fan-out), so
#: the cost scales with node count.
COLD_BOOT_BASE = 5e-3
COLD_BOOT_PER_NODE = 2e-4
#: Bring-up cost when a parent session assists (seconds, base + per
#: tree level): the parent's overlay broadcasts the wire-up in one tree
#: sweep, so the cost scales with tree depth — the paper's "rapid
#: creation".
ASSISTED_BOOT_BASE = 5e-4
ASSISTED_BOOT_PER_LEVEL = 1e-4


@dataclass
class CommsConfig:
    """How an instance hierarchy builds its per-job overlay networks.

    Attributes
    ----------
    cluster:
        The simulated cluster whose nodes host the brokers.
    task_registry:
        ``{name: factory(ctx) -> generator}`` for ``wexec``-launched
        program jobs (:attr:`JobSpec.task`).
    tree_arity:
        Fan-out of each session's tree plane.
    with_heartbeat / hb_period / hb_max_epochs:
        Load the ``hb`` + ``live`` modules (liveness detection, tree
        self-healing, acting-root takeover).  Off by default so
        bounded simulations drain naturally.
    kvs_replicas:
        Ranks holding standby replicas of the KVS root master
        (multi-master failover); empty keeps single-master.
    """

    cluster: Cluster
    task_registry: dict = field(default_factory=dict)
    tree_arity: int = 2
    extra_modules: Optional[Callable[[int], list[ModuleSpec]]] = None
    with_heartbeat: bool = False
    hb_period: float = 0.1
    hb_max_epochs: Optional[int] = None
    kvs_replicas: tuple = ()

    def bootstrap_delay(self, n_nodes: int, *, assisted: bool) -> float:
        """Simulated seconds to bring a session up over ``n_nodes``."""
        if assisted:
            depth = max(1.0, math.log2(max(n_nodes, 2)))
            return ASSISTED_BOOT_BASE + ASSISTED_BOOT_PER_LEVEL * depth
        return COLD_BOOT_BASE + COLD_BOOT_PER_NODE * n_nodes

    def build_session(self, node_ids: list[int]) -> CommsSession:
        """Construct (but not start) a session over ``node_ids`` with
        the standard service module set."""
        size = len(node_ids)
        replicas = tuple(r for r in self.kvs_replicas if r < size)
        modules = [
            ModuleSpec(KvsModule, replicas=replicas),
            ModuleSpec(BarrierModule),
            ModuleSpec(LogModule),
            ModuleSpec(GroupModule, max_depth=0),
            ModuleSpec(ResvcModule, max_depth=0),
            ModuleSpec(WexecModule, registry=self.task_registry),
            ModuleSpec(JobManagerModule),
        ]
        if self.with_heartbeat:
            modules.append(ModuleSpec(HeartbeatModule,
                                      period=self.hb_period,
                                      max_epochs=self.hb_max_epochs))
            modules.append(ModuleSpec(LiveModule))
        if self.extra_modules is not None:
            modules.extend(self.extra_modules(size))
        return CommsSession(
            self.cluster, node_ids=node_ids,
            topology=TreeTopology(size, arity=min(self.tree_arity,
                                                  max(1, size - 1))),
            modules=modules)
