"""Discrete-event scheduler: ordering, cancellation, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.scheduler import Scheduler


class TestOrdering:
    def test_time_order(self):
        s = Scheduler()
        fired = []
        s.at(2.0, fired.append, "b")
        s.at(1.0, fired.append, "a")
        s.at(3.0, fired.append, "c")
        s.run()
        assert fired == ["a", "b", "c"]
        assert s.now == 3.0

    def test_fifo_at_same_time(self):
        s = Scheduler()
        fired = []
        for name in "abcde":
            s.at(1.0, fired.append, name)
        s.run()
        assert fired == list("abcde")

    def test_after_relative(self):
        s = Scheduler()
        s.run(until=10.0)
        fired = []
        s.after(0.5, fired.append, s)
        s.run()
        assert s.now == 10.5

    def test_events_can_schedule_events(self):
        s = Scheduler()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                s.after(1.0, chain, depth + 1)

        s.at(0.0, chain, 0)
        s.run()
        assert fired == [0, 1, 2, 3]
        assert s.now == 3.0


class TestBounds:
    def test_run_until(self):
        s = Scheduler()
        fired = []
        s.at(1.0, fired.append, 1)
        s.at(5.0, fired.append, 5)
        s.run(until=2.0)
        assert fired == [1]
        assert s.now == 2.0
        s.run()
        assert fired == [1, 5]

    def test_max_events(self):
        s = Scheduler()
        fired = []
        for i in range(10):
            s.at(float(i), fired.append, i)
        s.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_stop_when(self):
        s = Scheduler()
        fired = []
        for i in range(10):
            s.at(float(i), fired.append, i)
        s.run(stop_when=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_run_until_advances_clock_with_empty_queue(self):
        s = Scheduler()
        s.run(until=7.0)
        assert s.now == 7.0


class TestCancellation:
    def test_cancel_skips(self):
        s = Scheduler()
        fired = []
        handle = s.at(1.0, fired.append, "x")
        s.at(2.0, fired.append, "y")
        handle.cancel()
        s.run()
        assert fired == ["y"]

    def test_cancel_from_earlier_event(self):
        s = Scheduler()
        fired = []
        later = s.at(2.0, fired.append, "late")
        s.at(1.0, later.cancel)
        s.run()
        assert fired == []

    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False


class TestErrors:
    def test_scheduling_in_past_rejected(self):
        s = Scheduler()
        s.run(until=5.0)
        with pytest.raises(SimulationError):
            s.at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Scheduler().after(-0.1, lambda: None)

    def test_exceptions_propagate(self):
        s = Scheduler()

        def boom():
            raise ValueError("boom")

        s.at(1.0, boom)
        with pytest.raises(ValueError):
            s.run()

    def test_counters(self):
        s = Scheduler()
        s.at(1.0, lambda: None)
        s.at(2.0, lambda: None)
        assert s.pending == 2
        s.run()
        assert s.events_processed == 2


class TestCompaction:
    """Lazy removal of cancelled events from the heap."""

    def test_compacts_when_cancelled_dominate(self):
        s = Scheduler()
        fired = []
        handles = [s.at(1000.0 + i, fired.append, i) for i in range(600)]
        for h in handles[:400]:
            h.cancel()
        # The 301st cancel tips the majority (301*2 > 600) and compacts;
        # the remaining 99 cancels stay lazily queued (198 < 299*... no
        # second majority on the shrunken queue).
        assert s.compactions == 1
        assert s.pending == 600 - 301
        assert s.cancelled_pending == 99
        s.run()
        assert len(fired) == 200
        assert s.pending == 0

    def test_small_queues_never_compact(self):
        s = Scheduler()
        handles = [s.at(10.0 + i, lambda: None) for i in range(100)]
        for h in handles:
            h.cancel()
        assert s.compactions == 0
        assert s.pending == 100  # cancelled entries drain via run()
        s.run()
        assert s.events_processed == 0
        assert s.pending == 0

    def test_double_cancel_counted_once(self):
        s = Scheduler()
        keep = [s.at(5.0, lambda: None) for _ in range(10)]
        victim = s.at(5.0, lambda: None)
        victim.cancel()
        victim.cancel()
        assert s.cancelled_pending == 1
        assert s.pending == len(keep) + 1

    def test_cancelled_never_fire_after_compaction(self):
        s = Scheduler()
        fired = []
        handles = [s.at(1.0 + i * 0.001, fired.append, i) for i in range(400)]
        for h in handles[:250]:
            h.cancel()
        assert s.compactions >= 1
        s.run()
        assert fired == list(range(250, 400))

    def test_interleaved_schedule_and_cancel_is_consistent(self):
        s = Scheduler()
        fired = []
        live = []
        for i in range(1200):
            h = s.at(100.0 + i, fired.append, i)
            if i % 3 != 0:
                h.cancel()
            else:
                live.append(i)
        s.run()
        assert fired == live
        assert s.events_processed == len(live)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
def test_events_fire_in_nondecreasing_time_order(times):
    s = Scheduler()
    observed = []
    for t in times:
        s.at(t, lambda t=t: observed.append(s.now))
    s.run()
    assert observed == sorted(observed)
    assert len(observed) == len(times)
