"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import (AllOf, AnyOf, Channel, Event, Interrupt,
                              Process, Simulation, SimulationError, Timeout)


@pytest.fixture
def sim():
    return Simulation(seed=42)


class TestEvent:
    def test_starts_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        ev.succeed(123)
        sim.run()
        assert ev.processed and ev.value == 123

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_raises_on_value_access(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        sim.run()
        with pytest.raises(ValueError):
            _ = ev.value

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]


class TestTimeout:
    def test_fires_at_delay(self, sim):
        times = []
        sim.timeout(2.5).add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [2.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_carries_value(self, sim):
        ev = sim.timeout(1.0, value="v")
        sim.run()
        assert ev.value == "v"

    def test_zero_delay_fires_now(self, sim):
        ev = sim.timeout(0.0)
        sim.run()
        assert ev.processed and sim.now == 0.0


class TestProcess:
    def test_sequential_timeouts_advance_clock(self, sim):
        log = []

        def proc():
            yield sim.timeout(1.0)
            log.append(sim.now)
            yield sim.timeout(2.0)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [1.0, 3.0]

    def test_return_value_via_join(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "done"

        def parent():
            result = yield sim.spawn(child())
            return result

        p = sim.spawn(parent())
        assert sim.run_until_complete(p) == "done"

    def test_yield_non_event_raises(self, sim):
        def bad():
            yield 42

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_propagates_in_strict_mode(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        sim.spawn(bad())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_contained_process_fails_event_in_strict_mode(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        def watcher():
            try:
                yield sim.spawn(bad(), contain=True)
            except RuntimeError as exc:
                return f"caught {exc}"

        p = sim.spawn(watcher())
        assert sim.run_until_complete(p) == "caught kaput"

    def test_interrupt_wakes_waiter(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as it:
                return ("interrupted", it.cause)

        p = sim.spawn(sleeper())
        sim.timeout(1.0).add_callback(lambda e: p.interrupt("why"))
        assert sim.run_until_complete(p) == ("interrupted", "why")
        assert sim.now == pytest.approx(1.0)

    def test_interrupt_finished_process_raises(self, sim):
        def quick():
            yield sim.timeout(0.1)

        p = sim.spawn(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_failed_event_throws_into_waiter(self, sim):
        ev = sim.event()

        def waiter():
            try:
                yield ev
            except ValueError:
                return "caught"

        p = sim.spawn(waiter())
        sim.timeout(1.0).add_callback(lambda e: ev.fail(ValueError("x")))
        assert sim.run_until_complete(p) == "caught"

    def test_is_alive_transitions(self, sim):
        def proc():
            yield sim.timeout(1.0)

        p = sim.spawn(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestChannel:
    def test_fifo_order(self, sim):
        ch = sim.channel()
        got = []

        def consumer():
            for _ in range(3):
                item = yield ch.get()
                got.append(item)

        sim.spawn(consumer())
        for i in range(3):
            ch.put(i)
        sim.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, sim):
        ch = sim.channel()
        times = []

        def consumer():
            yield ch.get()
            times.append(sim.now)

        def producer():
            yield sim.timeout(4.0)
            ch.put("x")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert times == [4.0]

    def test_multiple_getters_served_in_order(self, sim):
        ch = sim.channel()
        got = []

        def consumer(tag):
            item = yield ch.get()
            got.append((tag, item))

        sim.spawn(consumer("a"))
        sim.spawn(consumer("b"))
        ch.put(1)
        ch.put(2)
        sim.run()
        assert got == [("a", 1), ("b", 2)]

    def test_len_and_peek(self, sim):
        ch = sim.channel()
        ch.put("x")
        ch.put("y")
        assert len(ch) == 2
        assert ch.peek_all() == ["x", "y"]


class TestCombinators:
    def test_all_of_collects_values_in_order(self, sim):
        evs = [sim.timeout(3.0, value="c"), sim.timeout(1.0, value="a")]
        combo = sim.all_of(evs)
        sim.run()
        assert combo.value == ["c", "a"]
        assert sim.now == 3.0

    def test_all_of_empty_fires_immediately(self, sim):
        combo = sim.all_of([])
        assert combo.triggered and combo.value == []

    def test_all_of_fails_on_first_failure(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        sim.timeout(0.5).add_callback(lambda e: bad.fail(ValueError("x")))
        combo = sim.all_of([good, bad])

        def waiter():
            try:
                yield combo
            except ValueError:
                return "failed"

        p = sim.spawn(waiter())
        assert sim.run_until_complete(p) == "failed"

    def test_any_of_returns_winner(self, sim):
        evs = [sim.timeout(5.0, value="slow"), sim.timeout(1.0, value="fast")]
        combo = sim.any_of(evs)
        sim.run()
        assert combo.value == (1, "fast")

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])


class TestSimulationLoop:
    def test_run_until_stops_clock(self, sim):
        fired = []
        sim.timeout(10.0).add_callback(lambda e: fired.append(1))
        t = sim.run(until=5.0)
        assert t == 5.0 and not fired
        sim.run()
        assert fired and sim.now == 10.0

    def test_simultaneous_events_run_in_schedule_order(self, sim):
        order = []
        for i in range(10):
            sim.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_event_budget_enforced(self, sim):
        def spinner():
            while True:
                yield sim.timeout(1.0)

        sim.spawn(spinner())
        with pytest.raises(SimulationError):
            sim.run(max_events=50)

    def test_run_until_complete_detects_deadlock(self, sim):
        never = sim.event()

        def stuck():
            yield never

        p = sim.spawn(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(p)

    def test_event_count_is_deterministic(self):
        def run_once():
            sim = Simulation(seed=7)

            def worker(i):
                yield sim.timeout(sim.rng.random())
                yield sim.timeout(0.5)

            for i in range(20):
                sim.spawn(worker(i))
            sim.run()
            return sim.event_count, sim.now

        assert run_once() == run_once()


class TestAbandon:
    def test_abandoned_timeout_never_fires(self, sim):
        fired = []
        ev = sim.timeout(5.0)
        ev.add_callback(lambda e: fired.append(1))
        ev.abandon()
        sim.run()
        assert not fired

    def test_abandoned_event_does_not_advance_clock(self, sim):
        sim.timeout(1.0)
        long = sim.timeout(100.0)
        long.abandon()
        sim.run()
        assert sim.now == 1.0

    def test_abandon_loser_of_any_of(self, sim):
        def proc():
            fast = sim.timeout(1.0, value="fast")
            slow = sim.timeout(50.0, value="slow")
            which, value = yield sim.any_of([fast, slow])
            slow.abandon()
            return value

        p = sim.spawn(proc())
        assert sim.run_until_complete(p) == "fast"
        sim.run()
        assert sim.now == 1.0  # the 50 s timeout left no trace

    def test_run_until_complete_skips_dead_events(self, sim):
        dead = sim.timeout(0.5)
        dead.abandon()

        def proc():
            yield sim.timeout(1.0)
            return "done"

        p = sim.spawn(proc())
        assert sim.run_until_complete(p) == "done"


class TestChannelCancelledGetters:
    """Regression tests for the in-place skip of getters that were
    triggered by something other than a put (e.g. a shutdown path
    flushing a pending get): ``put`` must hand the item to the oldest
    *still-pending* getter, preserving FIFO among the survivors."""

    def test_put_skips_externally_triggered_getter(self, sim):
        ch = sim.channel()
        g1, g2, g3 = ch.get(), ch.get(), ch.get()
        g2.succeed("flushed")  # cancelled out of band while queued
        ch.put("x")
        ch.put("y")
        sim.run()
        assert g1.value == "x"
        assert g2.value == "flushed"
        assert g3.value == "y"

    def test_item_queued_when_every_getter_cancelled(self, sim):
        ch = sim.channel()
        g1, g2 = ch.get(), ch.get()
        g1.succeed("a")
        g2.succeed("b")
        ch.put("kept")
        sim.run()
        assert ch.peek_all() == ["kept"]
        assert ch.get().value == "kept"


class TestHotPathMachinery:
    def test_timeout_name_rendered_lazily(self, sim):
        t = sim.timeout(0.25)
        assert type(t._name) is tuple  # not rendered yet
        assert t.name == "timeout(0.25)"  # == old f"timeout({0.25:g})"
        assert type(t._name) is str  # memoized after first read

    def test_lazy_name_matches_eager_format(self, sim):
        for delay in (0.0, 1.3e-6, 0.05, 2.0, 123456.789):
            assert sim.timeout(delay).name == f"timeout({delay:g})"
        ch = sim.channel(name="inbox:3:default")
        assert ch.get().name == "get:inbox:3:default"

    def test_callbacks_run_in_registration_order(self, sim):
        order = []
        ev = sim.timeout(0.0)
        for tag in "abcd":  # first lands in _cb1, rest overflow
            ev.add_callback(lambda e, tag=tag: order.append(tag))
        sim.run()
        assert order == list("abcd")

    def test_discard_callback_from_either_tier(self, sim):
        order = []

        def make(tag):
            return lambda e: order.append(tag)

        a, b, c = make("a"), make("b"), make("c")
        ev = sim.timeout(0.0)
        for cb in (a, b, c):
            ev.add_callback(cb)
        ev._discard_callback(a)  # the _cb1 slot
        ev._discard_callback(c)  # the overflow list
        sim.run()
        assert order == ["b"]

    def test_add_callback_on_abandoned_event_rejected(self, sim):
        ev = sim.timeout(1.0)
        ev.abandon()
        with pytest.raises(SimulationError):
            ev.add_callback(lambda e: None)

    def test_any_of_detaches_loser_callbacks(self, sim):
        winner = sim.timeout(1.0, value="w")
        loser = sim.event()
        combo = sim.any_of([loser, winner])
        assert loser._cb1 is not None  # watcher attached
        sim.run()
        assert combo.value == (1, "w")
        assert loser._cb1 is None and not loser.callbacks  # detached
        loser.succeed("late")  # losers stay usable after the race
        sim.run()
        assert combo.value == (1, "w")
        assert loser.value == "late"


class TestHeapCompaction:
    def test_compaction_mid_run_keeps_later_events(self, sim):
        """Abandoning >512 scheduled events mid-run triggers heap
        compaction; events scheduled afterwards must still be seen by
        the already-running loop (compaction mutates the heap list in
        place — rebinding it would strand them in a new list)."""
        done = []

        def body():
            doomed = [sim.timeout(100.0) for _ in range(600)]
            yield sim.timeout(1.0)
            for t in doomed:
                t.abandon()
            assert sim._ndead < 600  # compaction ran at least once
            yield sim.timeout(1.0)  # scheduled post-compaction
            done.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert done == [2.0]
        assert sim.now == 2.0  # dead entries never advanced the clock

    def test_compaction_during_until_run(self, sim):
        done = []

        def body():
            doomed = [sim.timeout(50.0) for _ in range(600)]
            yield sim.timeout(1.0)
            for t in doomed:
                t.abandon()
            yield sim.timeout(1.0)
            done.append(sim.now)

        sim.spawn(body())
        sim.run(until=10.0)
        assert done == [2.0]
        assert sim.now == 10.0
