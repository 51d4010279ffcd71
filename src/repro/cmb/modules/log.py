"""``log`` — reduced, filtered session logging (Table I).

"Log messages are reduced and filtered before being placed in a log
file at the session root.  A circular debug buffer provides log
context in response to a fault event."

Every broker's instance keeps a circular buffer of *all* local records;
records at or above ``info`` are batched and forwarded
upstream (the reduction: one message per batch rather than per record),
landing in the root instance's ``sink`` list — the session "log file".
A ``fault`` event makes every instance dump its circular buffer
upstream so the root log gains full context around the failure.
"""

from __future__ import annotations

from collections import deque

from ..message import Message
from ..module import CommsModule, request_handler

__all__ = ["LogModule", "LEVELS"]

#: Severity order (syslog-flavoured subset).
LEVELS = {"debug": 0, "info": 1, "warn": 2, "err": 3, "crit": 4}

#: Minimum severity forwarded toward the root; lower records stay in
#: the local circular buffer only.
FORWARD_LEVEL = LEVELS["info"]
#: Circular debug-buffer capacity per broker.
BUFFER_SIZE = 128
#: Seconds to accumulate records before forwarding one combined
#: message upstream — the "reduce" in Table I.
BATCH_WINDOW = 1e-3


class LogModule(CommsModule):
    """Hierarchical log reduction: filter at ``FORWARD_LEVEL``, keep
    the newest ``BUFFER_SIZE`` local records, forward one batch per
    ``BATCH_WINDOW``."""

    name = "log"

    def __init__(self, broker):
        super().__init__(broker)
        self.circular: deque = deque(maxlen=BUFFER_SIZE)
        self._batch: list[dict] = []
        self._flush_scheduled = False
        # Root only: the session log "file".
        self.sink: list[dict] = []

    def start(self) -> None:
        self.broker.subscribe("fault", self._on_fault)

    # ------------------------------------------------------------------
    # local producer API (used via broker.log / module.log)
    # ------------------------------------------------------------------
    def append(self, level: str, text: str) -> None:
        """Record a log message originating on this broker."""
        rec = {"t": self.broker.sim.now, "rank": self.rank,
               "level": level, "text": text}
        self.circular.append(rec)
        if LEVELS.get(level, 0) >= FORWARD_LEVEL:
            self._enqueue([rec])

    # ------------------------------------------------------------------
    # reduction path
    # ------------------------------------------------------------------
    def _enqueue(self, records: list[dict]) -> None:
        if self.is_root:
            self.sink.extend(records)
            return
        self._batch.extend(records)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.broker.after(BATCH_WINDOW, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._batch:
            return
        batch, self._batch = self._batch, []
        if self.broker.parent is None:
            # We became the acting overlay root after the static root
            # died: there is no upstream, so our sink *is* the session
            # log now.
            self.sink.extend(batch)
            return
        self.broker.rpc_parent_cb("log.append", {"records": batch},
                                  lambda resp: None)

    @request_handler(required=("records",))
    def req_append(self, msg: Message) -> None:
        """Records forwarded from a downstream instance."""
        self._enqueue(msg.payload["records"])
        self.respond(msg, {})

    # ------------------------------------------------------------------
    # fault-triggered context dump
    # ------------------------------------------------------------------
    def _on_fault(self, _msg: Message) -> None:
        if self.circular:
            self._enqueue([dict(r, dumped=True) for r in self.circular])

    def req_dump(self, msg: Message) -> None:
        """Return this broker's circular buffer (``log.dump`` RPC)."""
        self.respond(msg, {"records": list(self.circular)})

    def req_sink(self, msg: Message) -> None:
        """Return the root log sink (only meaningful at the root)."""
        self.respond(msg, {"records": list(self.sink)})
