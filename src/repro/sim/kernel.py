"""Deterministic discrete-event simulation kernel.

This module is the foundation of the reproduction: every Flux run-time
component (CMB brokers, KVS masters/slaves, KAP tester processes, jobs)
runs as a coroutine *process* on top of this kernel, and all latencies
reported by the benchmark harness are simulated-time measurements taken
here.

The design is a small, self-contained SimPy-style engine:

- :class:`Event` — a one-shot occurrence that processes can wait on.
- :class:`Timeout` — an event that fires after a simulated delay.
- :class:`Process` — a generator-based coroutine; yielding an event
  suspends the process until the event fires.  A process is itself an
  event that fires when the generator returns, so processes can join
  each other.
- :class:`Simulation` — the event loop.  Time is a float (seconds).

Determinism: the ready queue is a heap ordered by ``(time, priority,
sequence)`` where ``sequence`` is a monotonically increasing insertion
counter, so simultaneous events always run in the order they were
scheduled.  Combined with a single seeded RNG (:attr:`Simulation.rng`)
a run is exactly reproducible.

Hot-path engineering (see DESIGN.md "Performance engineering"): event
names are built lazily — constructors store a ``(fmt, *args)`` tuple
and the :attr:`Event.name` property renders it only when someone
actually reads the name (a repr, a trace, a replay fingerprint).  The
rendered string is byte-identical to the old eager f-string, so
SAN105 fingerprints are unchanged.  Events also keep their first
callback in a dedicated slot (``_cb1``), deferring the waiter-list
allocation to the rare multi-waiter case.

Observation is batched: an attached :attr:`Simulation.recorder` is
handed processed heap entries a chunk at a time, never called once
per event, so an unobserved drain pays one ``is None`` test per event.
"""

from __future__ import annotations

import gc
import math
import random
from collections import deque
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Channel",
    "Port",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Simulation",
    "paused_gc",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]


@contextmanager
def paused_gc():
    """Suspend the cyclic garbage collector for a bounded drain.

    The event loop allocates at a rate that trips gen-2 collections
    constantly once the simulated state (KVS stores, pending tables)
    grows large, and each collection scans the *whole* object graph —
    per-event cost then grows with cluster size even though the work
    per event is constant.  Collecting once up front, freezing the
    survivors out of the collector's view and disabling it for the
    drain keeps per-event cost flat (reference counting still reclaims
    all acyclic garbage, which is everything the hot path creates).
    Collector state is restored on exit, and a final collection sweeps
    whatever cycles accumulated.  Reentrant: a nested use under an
    already-disabled collector leaves it disabled.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.collect()
        gc.freeze()
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.unfreeze()
            gc.collect()

#: Scheduling priorities for events that fire at the same instant.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(SimulationError):
    """Raised inside a process that has been interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class Event:
    """A one-shot occurrence that coroutine processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    schedules it, after which all registered callbacks run at the
    trigger time.  Waiting processes resume with the event's value (or
    have the failure exception thrown into them).

    Callback storage is two-tier: the overwhelmingly common single
    waiter lives in ``_cb1``; only a second waiter allocates the
    ``callbacks`` overflow list.  ``_cb1`` always runs first, so the
    run order matches the old single-list behaviour exactly.
    """

    __slots__ = ("sim", "_cb1", "callbacks", "_value", "_exc", "_state",
                 "_name", "_dead")

    PENDING = 0
    TRIGGERED = 1  # scheduled, callbacks not yet run
    PROCESSED = 2  # callbacks have run

    def __init__(self, sim: "Simulation", name: Any = ""):
        self.sim = sim
        self._name = name
        self._cb1: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._state = Event.PENDING
        self._dead = False

    # -- inspection ---------------------------------------------------
    @property
    def name(self) -> str:
        """The event's display name, rendered on first access.

        Constructors store either a plain string or a lazy
        ``("fmt %s", arg, ...)`` tuple; rendering via ``%`` yields the
        exact byte string the old eager f-strings produced, which the
        replay fingerprint (SAN105) depends on.
        """
        n = self._name
        if type(n) is tuple:
            n = self._name = n[0] % n[1:]
        return n

    @name.setter
    def name(self, value: Any) -> None:
        self._name = value

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != Event.PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (valid once triggered)."""
        return self._state != Event.PENDING and self._exc is None

    @property
    def value(self) -> Any:
        """The value the event fired with.

        Raises :class:`SimulationError` if the event is still pending.
        """
        if self._state == Event.PENDING:
            raise SimulationError(f"value of untriggered event {self!r}")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully with ``value`` at the current
        time."""
        if self._state != Event.PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._state = Event.TRIGGERED
        # Inlined Simulation._schedule (hottest trigger path).
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now, PRIORITY_NORMAL, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event as a failure: ``exc`` is thrown into waiters."""
        if self._state != Event.PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
        self._state = Event.TRIGGERED
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now, PRIORITY_NORMAL, seq, self))
        return self

    def abandon(self) -> None:
        """Discard a scheduled event: its callbacks never run and the
        clock does not advance to its firing time (the loop skips dead
        heap entries without touching ``now``).  Used to cancel the
        loser of an any_of race — e.g. a duration job's superseded
        completion timeout after a malleable resize."""
        if self._dead:
            return
        self._dead = True
        self._cb1 = None
        self.callbacks = None
        if self._state == Event.TRIGGERED:
            # The entry is still sitting in the heap; let the loop
            # compact once dead entries dominate (heap hygiene).
            self.sim._note_dead()

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires (immediately if done)."""
        if self._state == Event.PROCESSED:
            fn(self)
        elif self._cb1 is None and self.callbacks is None:
            if self._dead:
                raise SimulationError(
                    f"callback registered on abandoned event {self!r}")
            self._cb1 = fn
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def _discard_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach a previously registered callback (no-op if absent or
        already run).  Uses ``==`` so re-created bound methods match."""
        if self._cb1 == fn:
            self._cb1 = None
            return
        cbs = self.callbacks
        if cbs is not None:
            try:
                cbs.remove(fn)
            except ValueError:
                pass

    def _run_callbacks(self) -> None:
        self._state = Event.PROCESSED
        cb1, self._cb1 = self._cb1, None
        callbacks, self.callbacks = self.callbacks, None
        if cb1 is not None:
            cb1(self)
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        # Inlined Event.__init__ (timeouts are the single hottest event
        # constructor); the name renders as f"timeout({delay:g})".
        self.sim = sim
        self._name = ("timeout(%g)", delay)
        self._cb1 = None
        self.callbacks = None
        self._value = value
        self._exc = None
        self._state = Event.TRIGGERED
        self._dead = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now + delay, PRIORITY_NORMAL, seq, self))


class Process(Event):
    """A coroutine driven by the simulation.

    Wraps a generator that yields :class:`Event` objects.  Each yield
    suspends the process until the yielded event fires; the event's
    value becomes the result of the ``yield`` expression.  When the
    generator returns, the process — which is itself an event — fires
    with the generator's return value, so other processes can wait for
    (join) it.
    """

    __slots__ = ("gen", "_waiting_on", "contain")

    def __init__(self, sim: "Simulation", gen: Generator, name: str = "",
                 *, contain: bool = False):
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self.contain = contain
        self._waiting_on: Optional[Event] = None
        # Bootstrap: start executing at the current time.
        boot = Event(sim, ("start:%s", self._name))
        boot._state = Event.TRIGGERED
        boot._cb1 = self._resume
        sim._schedule(boot, delay=0.0, priority=PRIORITY_URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == Event.PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A process waiting on an event is detached from it (the event
        still fires, but no longer resumes this process).  Interrupting
        a finished process is an error.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        target = self._waiting_on
        if target is not None:
            target._discard_callback(self._resume)
        self._waiting_on = None
        kick = Event(self.sim, ("interrupt:%s", self._name))
        kick._exc = Interrupt(cause)
        kick._state = Event.TRIGGERED
        kick._cb1 = self._resume
        self.sim._schedule(kick, delay=0.0, priority=PRIORITY_URGENT)

    # -- engine -------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        self.sim._active_process = self
        try:
            if trigger._exc is not None:
                nxt = self.gen.throw(trigger._exc)
            else:
                nxt = self.gen.send(trigger._value)
        except StopIteration as stop:
            self.sim._active_process = None
            self.succeed(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as clean termination.
            self.sim._active_process = None
            self.succeed(None)
            return
        except Exception as exc:
            self.sim._active_process = None
            if not self.contain:
                raise
            self.fail(exc)
            return
        self.sim._active_process = None
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {nxt!r}")
        if nxt.sim is not self.sim:
            raise SimulationError("yielded event belongs to another simulation")
        self._waiting_on = nxt
        nxt.add_callback(self._resume)


class Channel:
    """An unbounded FIFO message queue connecting processes.

    ``put`` is immediate; :meth:`get` returns an event that fires with
    the oldest item as soon as one is available.  Items are handed to
    getters strictly in FIFO order; concurrent getters are served in
    the order they asked.
    """

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: "Simulation", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any.

        Getters that were triggered by something else in the meantime
        (e.g. a timeout racing the get) are skipped in place — FIFO
        order among the still-pending getters is preserved.
        """
        getters = self._getters
        if getters:
            getter = getters.popleft()
            while getter._state != Event.PENDING:  # skip cancelled getters
                if not getters:
                    self._items.append(item)
                    return
                getter = getters.popleft()
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim, ("get:%s", self.name))
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (for inspection/testing)."""
        return list(self._items)


class Port(Channel):
    """A channel that, once :meth:`serve` names a consumer, hands it
    each item through one kernel event, ``get:<name>``, scheduled where
    a process looping on :meth:`Channel.get` schedules its get: when a
    put finds the port idle, and when the consumer returns with items
    still queued.  The item rides that event, so ``len()`` counts what
    such a loop would find queued."""

    __slots__ = ("_consumer", "_busy")

    def __init__(self, sim: "Simulation", name: str = ""):
        super().__init__(sim, name)
        self._consumer: Optional[Callable[[Any], None]] = None
        self._busy = False

    def serve(self, consumer: Callable[[Any], None]) -> None:
        """Hand every item, queued ones first, to ``consumer``."""
        self._consumer = consumer
        if self._items and not self._busy:
            self._arm(self._items.popleft())

    def put(self, item: Any) -> None:
        if self._consumer is None:
            Channel.put(self, item)
        elif self._busy:
            self._items.append(item)
        else:
            self._arm(item)

    def _arm(self, item: Any) -> None:
        self._busy = True
        ev = Event(self.sim, ("get:%s", self.name))
        ev._cb1 = self._hand_over
        ev.succeed(item)

    def _hand_over(self, ev: Event) -> None:
        self._consumer(ev._value)
        self._busy = False
        if self._items:
            self._arm(self._items.popleft())


class AllOf(Event):
    """Fires once every event in ``events`` has fired successfully.

    The value is the list of the constituent values, in input order.
    If any constituent fails, this event fails with the same exception
    (the first failure wins).
    """

    __slots__ = ("_pending", "_results")

    def __init__(self, sim: "Simulation", events: Iterable[Event]):
        super().__init__(sim, "all_of")
        events = list(events)
        self._results: list[Any] = [None] * len(events)
        self._pending = len(events)
        if self._pending == 0:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev.add_callback(lambda e, i=i: self._on_child(i, e))

    def _on_child(self, i: int, ev: Event) -> None:
        if self._state != Event.PENDING:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self._results[i] = ev._value
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._results)


class AnyOf(Event):
    """Fires as soon as the first of ``events`` fires.

    The value is a ``(index, value)`` tuple identifying which event won.
    Once the race is decided, the watcher callbacks registered on the
    losing events are detached, so long-lived losers (e.g. an inbox
    get racing a shutdown event) don't accumulate dead callbacks.
    """

    __slots__ = ("_watch",)

    def __init__(self, sim: "Simulation", events: Iterable[Event]):
        super().__init__(sim, "any_of")
        events = list(events)
        if not events:
            raise ValueError("AnyOf requires at least one event")
        self._watch: tuple = ()
        watch = []
        for i, ev in enumerate(events):
            cb = (lambda e, i=i: self._on_child(i, e))
            watch.append((ev, cb))
            ev.add_callback(cb)
            if self._state != Event.PENDING:
                break  # an already-processed input decided the race
        if self._state == Event.PENDING:
            self._watch = tuple(watch)
        else:
            for other, cb in watch:
                if other._state != Event.PROCESSED:
                    other._discard_callback(cb)

    def _on_child(self, i: int, ev: Event) -> None:
        if self._state != Event.PENDING:
            return
        watch, self._watch = self._watch, ()
        for j, (other, cb) in enumerate(watch):
            if j != i and other._state != Event.PROCESSED:
                other._discard_callback(cb)
        if ev._exc is not None:
            self.fail(ev._exc)
        else:
            self.succeed((i, ev._value))


class Simulation:
    """The discrete-event loop: simulated clock plus a scheduled-event heap.

    Parameters
    ----------
    seed:
        Seed for :attr:`rng`, the single RNG all stochastic decisions in
        a run must draw from (this is what makes runs reproducible).

    An exception escaping a process propagates out of :meth:`run`
    immediately, unless the process was spawned with ``contain=True``.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._ndead = 0
        self._active_process: Optional[Process] = None
        self._nevents = 0
        #: Optional batched observer of the processed-event stream.
        #: Every drain path appends each processed heap entry
        #: ``(t, priority, seq, event)`` to ``recorder.entries``
        #: *before* the event's callbacks run, and calls
        #: ``recorder.flush()`` — which must empty that list in place —
        #: once it holds ``recorder.chunk`` entries.  The replay-
        #: divergence sanitizer fingerprints the stream this way
        #: (:class:`~repro.analysis.sanitizers.EventFingerprint`).
        #: Observers must not schedule events or draw from :attr:`rng`,
        #: so attaching one cannot perturb the run.
        self.recorder: Optional[Any] = None

    # -- event creation helpers ----------------------------------------
    def event(self, name: Any = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def channel(self, name: str = "") -> Channel:
        """Create an unbounded FIFO :class:`Channel`."""
        return Channel(self, name=name)

    def spawn(self, gen: Generator, name: str = "",
              *, contain: bool = False) -> Process:
        """Start a new process running ``gen``; returns its Process event.

        ``contain=True`` confines an exception escaping the generator to
        a failed Process event (thrown into joiners) instead of
        propagating it out of :meth:`run` — used for sandboxing
        launched task bodies.
        """
        return Process(self, gen, name=name, contain=contain)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling / main loop ----------------------------------------
    def _schedule(self, ev: Event, *, delay: float = 0.0,
                  priority: int = PRIORITY_NORMAL) -> None:
        self._seq += 1
        heappush(self._heap, (self.now + delay, priority, self._seq, ev))

    def _note_dead(self) -> None:
        """Account one abandoned in-heap entry; compact the heap once
        dead entries dominate.  Re-heapifying the surviving entries
        cannot change processing order — the ``(time, priority, seq)``
        key is a total order — so compaction is invisible to a run.
        Compaction mutates the heap list *in place*: the run loops keep
        a local alias to it, and rebinding ``self._heap`` mid-run would
        strand newly scheduled events in a list the loop never sees."""
        self._ndead += 1
        heap = self._heap
        if self._ndead > 512 and self._ndead * 2 > len(heap):
            heap[:] = [e for e in heap if not e[3]._dead]
            heapify(heap)
            self._ndead = 0

    def _step(self, max_events: Optional[int] = None) -> bool:
        """Pop and process the next live event.

        The single loop body shared by :meth:`run` under a
        ``max_events`` budget and :meth:`run_until_complete`: dead-entry
        skipping, the event budget, and the recorder feed live here so
        those drivers cannot drift apart (:meth:`run` without a budget
        inlines the same body).  Returns False when the heap is
        drained.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            ev = entry[3]
            if ev._dead:
                if self._ndead > 0:
                    self._ndead -= 1
                continue
            self.now = entry[0]
            self._nevents += 1
            if max_events is not None and self._nevents > max_events:
                raise SimulationError(
                    f"event budget {max_events} exhausted at t={self.now:g}")
            rec = self.recorder
            if rec is not None:
                log = rec.entries
                log.append(entry)
                if len(log) >= rec.chunk:
                    rec.flush()
            ev._run_callbacks()
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the heap drains, ``until`` is reached, or the event
        budget ``max_events`` is exhausted.  Returns the final clock.
        """
        if max_events is not None:
            return self._run_budgeted(until, max_events)
        # One tight loop for the full drain and the ``until`` slice: no
        # budget check per event, callback dispatch inlined
        # (byte-for-byte the logic of _run_callbacks, so the processing
        # order is that of _step) and the recorder feed reduced to one
        # ``is None`` test when detached.  The head is peeked before it
        # is popped, so an event past ``until`` stays queued.
        stop = math.inf if until is None else until
        heap = self._heap
        rec = self.recorder
        if rec is not None:
            log, chunk, flush = rec.entries, rec.chunk, rec.flush
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev._dead:
                heappop(heap)
                if self._ndead > 0:
                    self._ndead -= 1
                continue
            if entry[0] > stop:
                self.now = until
                return until
            heappop(heap)
            self.now = entry[0]
            self._nevents += 1
            if rec is not None:
                log.append(entry)
                if len(log) >= chunk:
                    flush()
            ev._state = 2  # Event.PROCESSED
            cb1 = ev._cb1
            callbacks = ev.callbacks
            ev._cb1 = None
            ev.callbacks = None
            if cb1 is not None:
                cb1(ev)
            if callbacks:
                for fn in callbacks:
                    fn(ev)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _run_budgeted(self, until: Optional[float],
                      max_events: int) -> float:
        """:meth:`run` under an event budget, one :meth:`_step` at a
        time."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3]._dead:
                heappop(heap)
                if self._ndead > 0:
                    self._ndead -= 1
                continue
            if until is not None and head[0] > until:
                self.now = until
                return self.now
            self._step(max_events)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_complete(self, proc: Process,
                           max_events: Optional[int] = None) -> Any:
        """Run until ``proc`` finishes and return its value."""
        while not proc.triggered:
            if not self._step(max_events):
                raise SimulationError(
                    f"deadlock: process {proc.name!r} never completed")
        return proc.value

    @property
    def event_count(self) -> int:
        """Number of events processed so far (a determinism fingerprint)."""
        return self._nevents
