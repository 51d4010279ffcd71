"""``live`` — liveness detection and overlay self-healing (Table I).

"Each tree node receives heartbeat-synchronized hello messages from
its children.  After a configurable number of missed messages, a
liveliness event is issued for a dead child."

On every ``hb.pulse`` each non-root broker sends ``live.hello`` to its
current tree parent; parents track the last epoch heard from each
child.  A child silent for ``missed_max`` consecutive epochs is
declared dead via a session-wide ``live.down`` event, upon which every
broker rewires around the corpse (orphans re-attach to their
grandparent — the paper's "self-heal when interior nodes fail").
"""

from __future__ import annotations

from ..message import Message
from ..module import CommsModule, request_handler

__all__ = ["LiveModule"]


class LiveModule(CommsModule):
    """Liveness tracking driven by the heartbeat.

    Config
    ------
    missed_max:
        Consecutive missed hellos before a child is declared dead
        (default 3).
    """

    name = "live"

    def __init__(self, broker, *, missed_max: int = 3):
        super().__init__(broker, missed_max=missed_max)
        self.missed_max = missed_max
        self.last_heard: dict[int, int] = {}
        self.epoch = 0
        self.announced: set[int] = set()
        self._last_pulse = 0.0
        self._watchdog = None

    def start(self) -> None:
        self.broker.subscribe("hb.pulse", self._on_pulse)
        self.broker.subscribe("live.down", self._on_down)
        self.broker.subscribe("live.reattach", self._on_reattach)
        for child in self.broker.children:
            self.last_heard[child] = 0
        self._last_pulse = self.broker.sim.now
        self._arm_watchdog()

    # ------------------------------------------------------------------
    # pulse-starvation watchdog (orphan-side self-healing)
    #
    # Heartbeat pulses flood down the tree, so a broker whose parent
    # died — or silently dropped it from its children — receives
    # *nothing*: no pulses, hence no hello sends, no gossip, no chance
    # to ever learn of the failure from the (equally cut off) event
    # plane.  Detection cannot be left to inbound traffic alone; this
    # local timer notices the starvation and re-attaches from below.
    # ------------------------------------------------------------------
    def _watchdog_interval(self) -> float:
        hb = self.broker.modules.get("hb")
        if hb is None:
            return 0.0
        return hb.period * (self.missed_max + 2)

    def _arm_watchdog(self) -> None:
        interval = self._watchdog_interval()
        if interval <= 0.0:
            return
        max_epochs = self.broker.modules["hb"].max_epochs
        if max_epochs is not None and self.epoch >= max_epochs:
            # The heartbeat has finished for good: nothing is left to
            # starve, and a pending timer would hold a drained
            # simulation open past the last pulse.
            if self._watchdog is not None:
                self._watchdog.abandon()
                self._watchdog = None
        elif self._watchdog is None:
            self._watchdog = self.broker.after(interval,
                                               self._watchdog_fire)

    def _watchdog_fire(self) -> None:
        self._watchdog = None
        if not self.broker.alive:
            return
        interval = self._watchdog_interval()
        now = self.broker.sim.now
        parent = self.broker.parent
        if now - self._last_pulse > interval and parent is not None:
            if not self.broker.session.brokers[parent].alive:
                self._reattach_upward(parent)
            else:
                # The parent is alive but nothing flows down: it has
                # likely declared *us* dead and pruned us from its
                # children.  Nudge it — req_hello on the other side
                # reattaches a falsely-buried child.
                self.broker.send_parent("live.hello",
                                        {"rank": self.rank,
                                         "epoch": self.epoch})
        self._arm_watchdog()

    def _reattach_upward(self, dead_parent: int) -> None:
        """Our parent is dead and no live.down flood ever reached us
        (it would have had to route through the corpse).  Climb to the
        nearest live ancestor ourselves and register with it."""
        session = self.broker.session
        target = session.nearest_live_ancestor(self.rank)
        if target is None:
            # Our entire ancestor chain — the static root included —
            # is dead.  The minimum live rank takes the root's place;
            # everyone else attaches to it.
            acting = session.acting_root()
            if acting is None:
                return
            if acting == self.rank:
                self._become_acting_root(dead_parent)
                return
            target = acting
        self.log("err", f"parent {dead_parent} silent and dead; "
                        f"re-attaching to {target}")
        self.announced.add(dead_parent)
        self.broker.parent = target
        adopter = session.brokers[target]
        if self.rank not in adopter.children:
            adopter.children.append(self.rank)
        adopter_live = adopter.modules.get("live")
        if adopter_live is not None:
            # Fresh hello grace at the adopter for its new child.
            adopter_live.last_heard[self.rank] = adopter_live.epoch
        session._subtree_procs_cache = None
        # Re-route or fail anything we still had in flight via the corpse.
        self.broker._fail_pending_via(dead_parent)
        self.broker.send_parent("live.hello", {"rank": self.rank,
                                               "epoch": self.epoch})

    def _become_acting_root(self, dead_parent: int) -> None:
        """Take over the overlay root role: the static root (and every
        ancestor between it and us) is dead, and we are the minimum
        live rank.  Detach upward, restart the heartbeat so liveness
        detection and pulse-synchronized services keep running, and
        announce the death from the new event-plane flood point —
        ``handle_peer_down`` then runs *here first* (floods deliver
        locally before forwarding), so the orphan adoption scan has
        re-parented every cut-off peer before the flood fans out."""
        broker = self.broker
        self.log("err", f"ancestor chain dead via {dead_parent}; "
                        f"rank {self.rank} becomes acting overlay root")
        self.announced.add(dead_parent)
        broker.parent = None
        broker.session._subtree_procs_cache = None
        broker._fail_pending_via(dead_parent)
        hb = broker.modules.get("hb")
        if hb is not None:
            hb.ensure_beating()
        broker.publish("live.down", {"rank": dead_parent,
                                     "epoch": self.epoch})

    # ------------------------------------------------------------------
    def _on_pulse(self, msg: Message) -> None:
        self._last_pulse = self.broker.sim.now
        epoch = msg.payload["epoch"]
        if epoch > self.epoch + 1:
            # We were partitioned from the root (e.g. our parent died and
            # the overlay just healed): our children were equally cut off,
            # so restart their clocks rather than declaring them dead.
            for child in self.last_heard:
                self.last_heard[child] = epoch
        self.epoch = epoch
        self._arm_watchdog()
        if self.broker.parent is not None:
            self.broker.send_parent("live.hello",
                                    {"rank": self.rank,
                                     "epoch": self.epoch})
        self._check_children()

    # Hellos are only ever sent one-way (send_parent): no reply is owed.
    @request_handler(required=("rank", "epoch"))
    def req_hello(self, msg: Message) -> None:
        child = msg.payload["rank"]
        epoch = msg.payload["epoch"]
        prev = self.last_heard.get(child, 0)
        self.last_heard[child] = max(prev, epoch)
        if (child in self.announced
                and self.broker.session.brokers[child].alive):
            # A child we declared dead is talking again: on a lossy
            # fabric consecutive hello drops cause false positives, and
            # without this the "corpse" would stay partitioned from
            # downward floods forever.  (The alive check rejects
            # delayed hellos from a rank that really died since.)
            self.log("err", f"child {child} resumed hellos; reattaching")
            self.broker.publish("live.reattach", {"rank": child})

    def _check_children(self) -> None:
        for child in list(self.broker.children):
            if child in self.announced:
                continue
            heard = self.last_heard.get(child)
            if heard is None:
                # Newly adopted orphan: start the clock now.
                self.last_heard[child] = self.epoch
                continue
            if self.epoch - heard >= self.missed_max:
                self.announced.add(child)
                self.log("err", f"child {child} missed "
                                f"{self.epoch - heard} hellos; declaring down")
                self.broker.publish("live.down", {"rank": child,
                                                  "epoch": self.epoch})

    def _on_down(self, msg: Message) -> None:
        dead = msg.payload["rank"]
        self.announced.add(dead)
        self.last_heard.pop(dead, None)
        self.broker.handle_peer_down(dead)
        self.broker.session._subtree_procs_cache = None
        # Children may have been unreachable while the overlay was broken;
        # give every surviving child a fresh grace period.
        for child in self.broker.children:
            self.last_heard[child] = max(self.last_heard.get(child, 0),
                                         self.epoch)

    def _on_reattach(self, msg: Message) -> None:
        """A previously dead rank rejoined (``live.reattach``): prune it
        from the dead-set so a later death is re-announced, restore the
        original topology edges around it, and restart hello clocks —
        both for the returnee and for children whose hellos may have
        been lost while the overlay re-converged."""
        rank = msg.payload["rank"]
        self.announced.discard(rank)
        self.broker.handle_peer_up(rank)
        self.broker.session._subtree_procs_cache = None
        self.last_heard.pop(rank, None)
        for child in self.broker.children:
            self.last_heard[child] = max(self.last_heard.get(child, 0),
                                         self.epoch)

    # ------------------------------------------------------------------
    def req_status(self, msg: Message) -> None:
        """Report this broker's liveness view (``live.status`` RPC)."""
        self.respond(msg, {
            "rank": self.rank,
            "parent": self.broker.parent,
            "children": list(self.broker.children),
            "last_heard": {str(k): v for k, v in self.last_heard.items()},
            "down": sorted(self.announced),
        })
