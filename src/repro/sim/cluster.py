"""Cluster construction helpers.

Bundles a :class:`~repro.sim.kernel.Simulation`, a
:class:`~repro.sim.network.Network`, and a set of
:class:`~repro.sim.node.Node` objects into one handle, with presets for
the paper's testbed (Zin/Cab: 16-core nodes on QDR InfiniBand).
"""

from __future__ import annotations

from typing import Optional

from .kernel import Simulation
from .network import Network, NetworkParams
from .node import Node, NodeSpec

__all__ = ["Cluster", "make_cluster", "zin_like_params"]


def zin_like_params() -> NetworkParams:
    """Fabric parameters approximating a QLogic QDR IB interconnect."""
    return NetworkParams(
        latency=1.3e-6,
        bandwidth=3.2e9,
        ipc_latency=2.0e-6,
        ipc_bandwidth=6.0e9,
        per_message_overhead=2.0e-6,
    )


class Cluster:
    """A simulated cluster: simulation clock + fabric + nodes.

    Node ids are dense integers ``0 .. n-1`` which double as CMB ranks
    when a comms session spans the whole cluster.
    """

    def __init__(self, sim: Simulation, network: Network,
                 nodes: list[Node]):
        self.sim = sim
        self.network = network
        self.nodes = nodes
        for node in nodes:
            network.register(node.node_id)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        """Node object for ``node_id``."""
        return self.nodes[node_id]

    def fail_node(self, node_id: int) -> None:
        """Kill a node: stops its traffic and marks it down."""
        self.nodes[node_id].alive = False
        self.network.fail_node(node_id)

    def revive_node(self, node_id: int) -> None:
        """Bring a failed node back up."""
        self.nodes[node_id].alive = True
        self.network.revive_node(node_id)

    def alive_ids(self) -> list[int]:
        """Ids of nodes currently up."""
        return [n.node_id for n in self.nodes if n.alive]


def make_cluster(n_nodes: int, *, seed: int = 0,
                 node_spec: Optional[NodeSpec] = None,
                 net_params: Optional[NetworkParams] = None) -> Cluster:
    """Build an ``n_nodes`` cluster with Zin/Cab-like defaults.

    Parameters
    ----------
    n_nodes:
        Number of hosts (the paper sweeps 64, 128, 256, 512).
    seed:
        Simulation RNG seed; identical seeds give identical traces.
    node_spec / net_params:
        Hardware overrides; defaults are 16-core/32 GB nodes on a
        QDR-like fabric.
    """
    if n_nodes <= 0:
        raise ValueError("cluster needs at least one node")
    sim = Simulation(seed=seed)
    network = Network(sim, net_params or zin_like_params())
    spec = node_spec or NodeSpec()
    nodes = [Node(i, spec) for i in range(n_nodes)]
    return Cluster(sim, network, nodes)
