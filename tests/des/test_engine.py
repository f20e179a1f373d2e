"""Unit tests for the discrete-event engine."""

import pytest

from repro.des import Engine, SimulationError


def test_time_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_events_fire_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule(2.0, lambda: fired.append(("b", eng.now)))
    eng.schedule(1.0, lambda: fired.append(("a", eng.now)))
    eng.schedule(3.0, lambda: fired.append(("c", eng.now)))
    eng.run()
    assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_simultaneous_events_fire_in_schedule_order():
    eng = Engine()
    fired = []
    for label in "abcde":
        eng.schedule(1.0, lambda l=label: fired.append(l))
    eng.run()
    assert fired == list("abcde")


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    eng = Engine()
    seen = []
    eng.schedule_at(5.0, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [5.0]


def test_schedule_at_in_past_rejected():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.now == 1.0
    with pytest.raises(ValueError):
        eng.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    eng = Engine()
    fired = []
    handle = eng.schedule(1.0, lambda: fired.append("x"))
    eng.cancel(handle)
    eng.run()
    assert fired == []
    assert eng.now == 0.0  # cancelled events do not advance time


def test_cancel_is_idempotent():
    eng = Engine()
    handle = eng.schedule(1.0, lambda: None)
    eng.cancel(handle)
    eng.cancel(handle)
    eng.run()


def test_callbacks_can_schedule_more_events():
    eng = Engine()
    trace = []

    def first():
        trace.append(("first", eng.now))
        eng.schedule(0.5, lambda: trace.append(("second", eng.now)))

    eng.schedule(1.0, first)
    eng.run()
    assert trace == [("first", 1.0), ("second", 1.5)]


def test_run_until_advances_clock_even_without_events():
    eng = Engine()
    eng.run_until(10.0)
    assert eng.now == 10.0


def test_run_until_executes_only_events_before_deadline():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append(1.0))
    eng.schedule(5.0, lambda: fired.append(5.0))
    eng.run_until(2.0)
    assert fired == [1.0]
    assert eng.now == 2.0
    eng.run()
    assert fired == [1.0, 5.0]


def test_run_until_backwards_rejected():
    eng = Engine()
    eng.run_until(3.0)
    with pytest.raises(ValueError):
        eng.run_until(1.0)


def test_peek_skips_cancelled():
    eng = Engine()
    h = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    eng.cancel(h)
    assert eng.peek() == 2.0


def test_peek_empty_returns_none():
    eng = Engine()
    assert eng.peek() is None


def test_pending_counts_live_events():
    eng = Engine()
    h1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.pending == 2
    eng.cancel(h1)
    assert eng.pending == 1


def test_pending_counter_matches_heap_scan():
    """The O(1) live counter must track the O(n) reference scan through
    every transition: schedule, schedule_at, cancel, double-cancel, and
    event dispatch (including popping over cancelled entries)."""
    eng = Engine()
    assert eng.pending == eng._pending_scan() == 0

    handles = [eng.schedule(float(i + 1), lambda: None) for i in range(6)]
    handles.append(eng.schedule_at(10.0, lambda: None))
    assert eng.pending == eng._pending_scan() == 7

    eng.cancel(handles[1])
    eng.cancel(handles[4])
    assert eng.pending == eng._pending_scan() == 5

    eng.cancel(handles[1])  # double-cancel must not decrement twice
    assert eng.pending == eng._pending_scan() == 5

    while eng.step():
        assert eng.pending == eng._pending_scan()
    assert eng.pending == eng._pending_scan() == 0
    assert eng.events_executed == 5


def test_pending_counter_with_reschedules_during_run():
    """Cancel-and-reschedule from inside callbacks (the power-cap
    re-actuation pattern) keeps the counter consistent."""
    eng = Engine()
    scans = []

    def reschedule():
        h = eng.schedule(1.0, lambda: None)
        eng.cancel(h)
        eng.schedule(0.5, lambda: scans.append(eng.pending == eng._pending_scan()))

    eng.schedule(1.0, reschedule)
    eng.run()
    assert scans == [True]
    assert eng.pending == eng._pending_scan() == 0


def test_cancel_after_fire_does_not_corrupt_counter():
    eng = Engine()
    h = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    eng.step()  # fires h
    eng.cancel(h)  # late cancel of an already-fired handle
    assert eng.pending == eng._pending_scan() == 1


def test_events_executed_counter():
    eng = Engine()
    for _ in range(7):
        eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.events_executed == 7

    # a 50,000-event chain in which each callback schedules the next
    chain = Engine()
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] < 50_000:
            chain.schedule(0.001, tick)

    chain.schedule(0.0, tick)
    chain.run()
    assert chain.events_executed == 50_000


def test_max_events_limits_run():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.schedule(float(i + 1), lambda i=i: fired.append(i))
    eng.run(max_events=3)
    assert fired == [0, 1, 2]


def test_engine_not_reentrant():
    eng = Engine()
    errors = []

    def nested():
        try:
            eng.run()
        except SimulationError as e:
            errors.append(e)

    eng.schedule(1.0, nested)
    eng.run()
    assert len(errors) == 1


def test_step_returns_false_when_empty():
    eng = Engine()
    assert eng.step() is False


# ---------------------------------------------------------------------------
# non-finite scheduling


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_delay_rejected(delay):
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(delay, lambda: None)
    assert eng.pending == 0  # nothing leaked into the heap


@pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_schedule_at_rejected(time):
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule_at(time, lambda: None)
    assert eng.pending == 0


# ---------------------------------------------------------------------------
# cancellation compaction


def test_compaction_triggers_past_threshold():
    eng = Engine()
    eng.COMPACT_MIN_DEAD = 4  # instance override shrinks the floor
    handles = [eng.schedule(float(i + 1), lambda: None) for i in range(8)]
    for h in handles[:4]:
        eng.cancel(h)
    # dead=4 >= floor but 4*2 == len(heap): majority rule not met yet
    assert eng.compactions == 0
    eng.cancel(handles[4])
    # dead=5, 10 > 8: compacted — dead entries dropped, counter reset
    assert eng.compactions == 1
    assert eng._dead == 0
    assert len(eng._heap) == 3
    assert eng.pending == eng._pending_scan() == 3


def test_compaction_below_floor_stays_lazy():
    eng = Engine()
    handles = [eng.schedule(float(i + 1), lambda: None) for i in range(10)]
    for h in handles:
        eng.cancel(h)
    # 10 dead is under COMPACT_MIN_DEAD=64: pure lazy deletion
    assert eng.compactions == 0
    assert eng.pending == 0
    eng.run()
    assert eng.events_executed == 0


def test_compaction_preserves_firing_order():
    eng = Engine()
    eng.COMPACT_MIN_DEAD = 2
    fired = []
    keep = []
    for i in range(20):
        h = eng.schedule(float(i + 1), lambda i=i: fired.append(i))
        if i % 3 == 0:
            keep.append(i)
        else:
            eng.cancel(h)
    assert eng.compactions >= 1
    assert eng.pending == eng._pending_scan() == len(keep)
    eng.run()
    assert fired == keep


def test_compaction_during_run_keeps_loop_alive():
    """Cancelling from inside a callback may compact the heap while the
    dispatch loop holds an alias to it; the survivors must still fire."""
    eng = Engine()
    eng.COMPACT_MIN_DEAD = 2
    fired = []
    victims = [eng.schedule(5.0 + i, lambda: fired.append("victim")) for i in range(8)]
    eng.schedule(2.0, lambda: fired.append("survivor"))

    def purge():
        for h in victims:
            eng.cancel(h)

    eng.schedule(1.0, purge)
    eng.run()
    assert eng.compactions >= 1
    assert fired == ["survivor"]
    assert eng.pending == eng._pending_scan() == 0


def test_cancellation_storm_compaction_count_pinned():
    """Cap-change-storm shape at the default thresholds: 200 waves, each
    scheduling 256 events and cancelling all but the last of them."""
    eng = Engine()
    waves = [0]

    def storm():
        waves[0] += 1
        handles = [
            eng.schedule(1.0 + i * 1e-6, lambda: None) for i in range(256)
        ]
        for h in handles[:-1]:
            eng.cancel(h)
        if waves[0] < 200:
            eng.schedule(1e-3, storm)

    eng.schedule(0.0, storm)
    eng.run()
    assert eng.compactions == 309


# ---------------------------------------------------------------------------
# dispatch-loop variants


def _churn_workload(eng, trace):
    """Schedule/cancel/reschedule pattern exercising dead-entry skips."""

    def tick(i):
        trace.append((i, eng.now))
        if i < 30:
            h = eng.schedule(0.5, lambda: trace.append(("dead", eng.now)))
            eng.cancel(h)
            eng.schedule(0.25, lambda: tick(i + 1))

    eng.schedule(0.0, lambda: tick(0))


def test_run_and_step_produce_identical_trajectories():
    ran, stepped = [], []
    eng1 = Engine()
    _churn_workload(eng1, ran)
    eng1.run()
    eng2 = Engine()
    _churn_workload(eng2, stepped)
    while eng2.step():
        pass
    assert ran == stepped
    assert eng1.now == eng2.now
    assert eng1.events_executed == eng2.events_executed


def test_tracer_variant_matches_bare_trajectory():
    from repro.telemetry import MemorySink, Tracer, use_tracer

    bare, traced = [], []
    eng1 = Engine()
    _churn_workload(eng1, bare)
    eng1.run()

    sink = MemorySink()
    with use_tracer(Tracer(sink)):
        eng2 = Engine()
        _churn_workload(eng2, traced)
        eng2.run()
    assert traced == bare
    dispatches = [r for r in sink.records if r.get("name") == "des.dispatch"]
    assert len(dispatches) == eng2.events_executed
