"""Network cost model for the simulated cluster.

The paper's measurements (KAP latencies) are dominated by message counts,
message sizes, and overlay-tree depth, so we use a LogGP-flavoured model:

- every simulated node owns one :class:`Nic`;
- sending a message serializes on the sender's NIC
  (``size / bandwidth`` seconds, FIFO), then takes ``latency`` seconds
  of wire time to arrive;
- delivery puts the message into the destination's inbox port.

Intra-node hops (an external program talking to its local broker over
the "UNIX domain socket") use a cheap FIFO :class:`IpcLink` with its
own latency/bandwidth, separate from the NIC, mirroring the paper's
CMB client transport.

All parameters are plain floats so experiments can model different
fabrics; :mod:`repro.sim.cluster` provides QDR-InfiniBand-like defaults
matched to the paper's Zin/Cab testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from .kernel import Port, Simulation, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .faults import FaultPlan
    from .node import Node

__all__ = ["NetworkParams", "Nic", "IpcLink", "Network", "DeliveryError"]


class DeliveryError(Exception):
    """Raised (via a failed event) when a message cannot be delivered."""


@dataclass(frozen=True)
class NetworkParams:
    """Fabric parameters.

    Attributes
    ----------
    latency:
        One-way wire latency in seconds (QDR IB ~ 1.3 us).
    bandwidth:
        Link bandwidth in bytes/second (QDR IB ~ 3.2 GB/s effective).
    ipc_latency / ipc_bandwidth:
        Cost of the local client<->broker hop (UNIX socket).
    per_message_overhead:
        Fixed software overhead charged per send, covering framing,
        syscalls and broker dispatch (seconds).
    """

    latency: float = 1.3e-6
    bandwidth: float = 3.2e9
    ipc_latency: float = 2.0e-6
    ipc_bandwidth: float = 6.0e9
    per_message_overhead: float = 2.0e-6


class Nic:
    """A node's network interface: FIFO serialization of outgoing bytes.

    The NIC is the contention point: two messages leaving the same node
    back-to-back serialize, which is what makes large tree reductions
    (fence with unique values) cost linear time near the root.
    """

    __slots__ = ("sim", "params", "busy_until", "bytes_sent", "msgs_sent")

    def __init__(self, sim: Simulation, params: NetworkParams):
        self.sim = sim
        self.params = params
        self.busy_until: float = 0.0
        self.bytes_sent: int = 0
        self.msgs_sent: int = 0

    def send_delay(self, size: int) -> float:
        """Reserve the NIC for ``size`` bytes; return total delay until
        the message arrives at the remote peer (serialization + wire
        latency + software overhead), measured from *now*.
        """
        now = self.sim.now
        start = max(now, self.busy_until) + self.params.per_message_overhead
        end = start + size / self.params.bandwidth
        self.busy_until = end
        self.bytes_sent += size
        self.msgs_sent += 1
        return (end + self.params.latency) - now


class IpcLink:
    """Local-host transport between co-located endpoints.

    FIFO like a UNIX socket: back-to-back local sends serialize, so a
    small message never overtakes a large one on the same link.
    """

    __slots__ = ("sim", "params", "busy_until")

    def __init__(self, sim: Simulation, params: NetworkParams):
        self.sim = sim
        self.params = params
        self.busy_until: float = 0.0

    def send_delay(self, size: int) -> float:
        """Reserve the link for ``size`` bytes; returns the delay from
        now until local delivery."""
        now = self.sim.now
        start = max(now, self.busy_until) + self.params.per_message_overhead
        end = start + size / self.params.ipc_bandwidth
        self.busy_until = end
        return (end + self.params.ipc_latency) - now


class Network:
    """Registry of nodes and the delivery fabric between them.

    Endpoints register an inbox :class:`Port` under an integer node
    id.  :meth:`send` charges the cost model and schedules delivery; a
    message addressed to a failed (deregistered) node is counted as
    dropped and optionally reported to ``drop_hook``.
    """

    #: Port key of the default inbox created by :meth:`register`.
    DEFAULT_PORT = "default"

    def __init__(self, sim: Simulation, params: Optional[NetworkParams] = None):
        self.sim = sim
        self.params = params or NetworkParams()
        self._nics: dict[int, Nic] = {}
        self._loopbacks: dict[int, IpcLink] = {}
        # (node_id, port_key) -> inbox.  Multiple comms sessions coexist
        # on one node (the paper's per-job overlay networks); they share
        # the node's NIC but each owns a distinct port.
        self._inboxes: dict[tuple[int, Any], Port] = {}
        self._alive: dict[int, bool] = {}
        self.dropped: int = 0
        self.delivered: int = 0
        self.drop_hook: Optional[Callable[[int, int, Any], None]] = None
        #: Optional :class:`~repro.sim.faults.FaultPlan` perturbing
        #: inter-node traffic (chaos testing).  ``None`` — the default —
        #: leaves the delivery path bit-identical to a plan-free build.
        self.fault_plan: Optional["FaultPlan"] = None
        #: Optional :class:`~repro.analysis.sanitizers.SanitizerSet`
        #: observing every send/deliver/drop (FIFO-order checking).  A
        #: send is reported once the fabric knows how many copies it
        #: will deliver or drop (none for a send dropped at the source).
        #: Pure observer: it schedules no events and mutates nothing,
        #: so installing one leaves the run event-identical.
        self.sanitizers: Optional[Any] = None

    # -- membership -----------------------------------------------------
    def register(self, node_id: int) -> Port:
        """Attach ``node_id`` to the fabric (NIC + default port);
        returns the default inbox port."""
        if node_id in self._nics:
            raise ValueError(f"node {node_id} already registered")
        self._nics[node_id] = Nic(self.sim, self.params)
        self._loopbacks[node_id] = IpcLink(self.sim, self.params)
        self._alive[node_id] = True
        return self.open_port(node_id, self.DEFAULT_PORT)

    def open_port(self, node_id: int, port_key: Any) -> Port:
        """Open an additional named inbox on a registered node — one
        per comms session, so nested Flux jobs each get their own
        overlay endpoints over the shared NIC."""
        if node_id not in self._nics:
            raise ValueError(f"node {node_id} not registered")
        slot = (node_id, port_key)
        if slot in self._inboxes:
            raise ValueError(f"port {port_key!r} already open on "
                             f"node {node_id}")
        inbox = Port(self.sim, name=f"inbox:{node_id}:{port_key}")
        self._inboxes[slot] = inbox
        return inbox

    def close_port(self, node_id: int, port_key: Any) -> None:
        """Close a session port (future traffic to it is dropped)."""
        self._inboxes.pop((node_id, port_key), None)

    def inbox(self, node_id: int, port_key: Any = DEFAULT_PORT) -> Port:
        """The inbox port of ``node_id`` on ``port_key``."""
        return self._inboxes[(node_id, port_key)]

    def nic(self, node_id: int) -> Nic:
        """The NIC of ``node_id`` (for statistics inspection)."""
        return self._nics[node_id]

    def fail_node(self, node_id: int) -> None:
        """Mark a node dead: all future traffic to/from it is dropped."""
        self._alive[node_id] = False

    def revive_node(self, node_id: int) -> None:
        """Bring a failed node back (used by self-healing tests)."""
        self._alive[node_id] = True

    def is_alive(self, node_id: int) -> bool:
        """Whether the node currently accepts/produces traffic."""
        return self._alive.get(node_id, False)

    # -- transfer ---------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, size: int,
             port: Any = DEFAULT_PORT) -> None:
        """Transmit ``payload`` (accounted as ``size`` bytes) src -> dst,
        addressed to ``port`` on the destination.

        Fire-and-forget: reliability above the per-hop level (e.g. RPC
        retries after node failure) is the overlay's job, matching the
        paper's "reliable, in-order delivery per plane" property — the
        fabric never reorders messages between the same pair.
        """
        san = self.sanitizers
        if src == dst:
            # Loopback between co-located endpoints: FIFO IPC cost.
            delay = self._loopbacks[src].send_delay(size)
        else:
            if not self._alive.get(src, False):
                self._drop(src, dst, payload)
                return
            delay = self._nics[src].send_delay(size)
            plan = self.fault_plan
            if plan is not None:
                # Chaos path: the NIC was charged (bytes left the host)
                # before the fabric drops/duplicates/delays the message.
                dropped, dups, extra = plan.decide(src, dst)
                if dropped:
                    self._drop(src, dst, payload)
                    return
                if san is not None:
                    san.on_send(src, dst, port, payload, 1 + dups)
                # One clamp per copy: a duplicate's clamp finds the
                # original's time on the link and lands right behind it.
                deliver_at = self.sim.now + delay + extra
                for _ in range(1 + dups):
                    at = plan.fifo_clamp(src, dst, deliver_at)
                    ev = Timeout(self.sim, at - self.sim.now)
                    ev._cb1 = (
                        lambda _ev: self._deliver(src, dst, port, payload))
                return
        if san is not None:
            san.on_send(src, dst, port, payload)
        # Freshly created timeouts have no waiters, so the first-callback
        # slot is assigned directly (equivalent to add_callback, minus
        # its state checks on this hottest of paths).
        ev = Timeout(self.sim, delay)
        ev._cb1 = lambda _ev: self._deliver(src, dst, port, payload)

    def _deliver(self, src: int, dst: int, port: Any,
                 payload: Any) -> None:
        inbox = self._inboxes.get((dst, port))
        if not self._alive.get(dst, False) or inbox is None:
            self._drop(src, dst, payload)
            return
        self.delivered += 1
        if self.sanitizers is not None:
            self.sanitizers.on_deliver(src, dst, port, payload)
        inbox.put(payload)

    def _drop(self, src: int, dst: int, payload: Any) -> None:
        self.dropped += 1
        if self.sanitizers is not None:
            self.sanitizers.on_drop(src, dst, payload)
        if self.drop_hook is not None:
            self.drop_hook(src, dst, payload)

    # -- stats --------------------------------------------------------
    def total_bytes_sent(self) -> int:
        """Aggregate bytes pushed through every NIC so far."""
        return sum(nic.bytes_sent for nic in self._nics.values())
