"""repro — reproduction of *Flux: A Next-Generation Resource Management
Framework for Large HPC Centers* (Ahn et al., ICPP 2014).

The package implements the paper's prototyped run-time — the Comms
Message Broker (:mod:`repro.cmb`) and distributed KVS
(:mod:`repro.kvs`) — plus the Section III conceptual design
(:mod:`repro.core`, :mod:`repro.resource`, :mod:`repro.sched`) and the
KAP evaluation driver (:mod:`repro.kap`), all running on a
deterministic discrete-event cluster simulator (:mod:`repro.sim`).

Quickstart::

    from repro import make_cluster, standard_session
    from repro.kvs import KvsClient

    cluster = make_cluster(8)
    session = standard_session(cluster).start()

    def program(sim):
        kvs = KvsClient(session.connect(rank=3))
        yield kvs.put("a.b.c", 42)
        yield kvs.commit()
        value = yield kvs.get("a.b.c")
        return value

    proc = cluster.sim.spawn(program(cluster.sim))
    assert cluster.sim.run_until_complete(proc) == 42
"""

from typing import Optional

from .sim import Cluster, Simulation, make_cluster
from .cmb import CommsSession, Handle, ModuleSpec, TreeTopology
from .cmb.modules import (BarrierModule, GroupModule, HeartbeatModule,
                          LiveModule, LogModule, MonModule, ResvcModule,
                          StatsModule, WexecModule, registry_samplers)
from .kvs import KvsClient, KvsModule

__version__ = "1.0.0"

__all__ = [
    "Cluster", "Simulation", "make_cluster", "CommsSession", "Handle",
    "ModuleSpec", "TreeTopology", "KvsClient", "KvsModule",
    "standard_session", "__version__",
]


def standard_session(cluster: Cluster,
                     node_ids: Optional[list[int]] = None,
                     topology: Optional[TreeTopology] = None,
                     *,
                     with_heartbeat: bool = False,
                     hb_period: float = 0.1,
                     hb_max_epochs: Optional[int] = None,
                     task_registry: Optional[dict] = None,
                     kvs_replicas: tuple = (),
                     kvs_dedup: bool = False,
                     wexec_config: Optional[dict] = None) -> CommsSession:
    """Build a comms session loaded with the full Table I module set.

    The heartbeat is off by default so bounded simulations drain
    naturally; enable it (with ``hb_max_epochs`` in tests) for the
    ``live``/``mon``/cache-expiry machinery.

    ``kvs_replicas`` names the ranks holding standby replicas of the
    KVS root master (multi-master failover); empty keeps the classic
    single-master protocol.  ``kvs_dedup`` turns on the walk read path
    (a cold read ships a ``kvs.walk`` master-ward instead of faulting
    directories in).  ``wexec_config`` passes extra keyword
    options (``max_restarts``, ``respawn_backoff``) to the bulk
    launcher's node-loss recovery.
    """
    modules = [
        ModuleSpec(KvsModule, replicas=tuple(kvs_replicas),
                   dedup=kvs_dedup),
        ModuleSpec(BarrierModule),
        ModuleSpec(LogModule),
        ModuleSpec(GroupModule),
        ModuleSpec(ResvcModule),
        ModuleSpec(WexecModule, registry=task_registry or {},
                   **(wexec_config or {})),
        # Registry-backed samplers and the ``health`` op are inactive:
        # they generate no traffic until a client activates them.
        ModuleSpec(MonModule, samplers=registry_samplers()),
        ModuleSpec(StatsModule),
    ]
    if with_heartbeat:
        modules.append(ModuleSpec(HeartbeatModule, period=hb_period,
                                  max_epochs=hb_max_epochs))
        modules.append(ModuleSpec(LiveModule))
    return CommsSession(cluster, node_ids=node_ids, topology=topology,
                        modules=modules)
