"""Unit tests for the discrete-event engine."""

import bisect
import random

import pytest

from repro.kernel import KERNELS
from repro.sim import EventLoop, SimulationError

_COMPILED = KERNELS.get("compiled")

#: the pure loop and, when the extension is built, the compiled one
LOOP_FACTORIES = [
    pytest.param(EventLoop, id="pure"),
    pytest.param(
        _COMPILED.make_loop,
        id="compiled",
        marks=pytest.mark.skipif(
            not _COMPILED.available,
            reason=f"compiled kernel not built ({_COMPILED.why_unavailable})",
        ),
    ),
]


def test_starts_at_time_zero(loop):
    assert loop.now == 0


def test_call_after_fires_at_right_time(loop):
    seen = []
    loop.call_after(100, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [100]


def test_call_at_absolute_time(loop):
    seen = []
    loop.call_at(250, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [250]


def test_events_fire_in_time_order(loop):
    seen = []
    loop.call_after(300, lambda: seen.append("c"))
    loop.call_after(100, lambda: seen.append("a"))
    loop.call_after(200, lambda: seen.append("b"))
    loop.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order(loop):
    seen = []
    for tag in ("first", "second", "third"):
        loop.call_at(50, lambda t=tag: seen.append(t))
    loop.run()
    assert seen == ["first", "second", "third"]


def test_call_soon_runs_after_pending_same_time_events(loop):
    seen = []
    loop.call_at(0, lambda: seen.append("pending"))
    loop.call_soon(lambda: seen.append("soon"))
    loop.run()
    assert seen == ["pending", "soon"]


def test_cannot_schedule_in_the_past(loop):
    loop.call_after(100, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.call_at(50, lambda: None)


def test_negative_delay_rejected(loop):
    with pytest.raises(SimulationError):
        loop.call_after(-1, lambda: None)


def test_cancelled_event_does_not_fire(loop):
    seen = []
    event = loop.call_after(100, lambda: seen.append("x"))
    event.cancel()
    loop.run()
    assert seen == []
    assert not event.pending


def test_run_until_stops_clock_at_horizon(loop):
    loop.call_after(1000, lambda: None)
    loop.run(until=500)
    assert loop.now == 500
    # The event is still pending and fires on the next run.
    fired = []
    loop.call_at(1000, lambda: fired.append(1))
    loop.run(until=2000)
    assert loop.now == 2000


def test_event_at_exact_horizon_fires(loop):
    seen = []
    loop.call_at(500, lambda: seen.append(1))
    loop.run(until=500)
    assert seen == [1]


def test_events_scheduled_during_run_execute(loop):
    seen = []

    def first():
        loop.call_after(10, lambda: seen.append("second"))
        seen.append("first")

    loop.call_after(5, first)
    loop.run()
    assert seen == ["first", "second"]


def test_stop_halts_processing(loop):
    seen = []

    def first():
        seen.append(1)
        loop.stop()

    loop.call_after(1, first)
    loop.call_after(2, lambda: seen.append(2))
    loop.run()
    assert seen == [1]
    assert loop.pending_count() == 1


def test_max_events_guard(loop):
    def reschedule():
        loop.call_after(1, reschedule)

    loop.call_after(1, reschedule)
    with pytest.raises(SimulationError):
        loop.run(max_events=100)


def test_max_events_overrun_still_counts_processed_events(loop):
    """events_processed must reflect work done even when the guard trips.

    Regression: the dispatch loop folds its local counter into
    events_processed in a finally block, so the SimulationError raised
    by the max_events valve must not lose the count.
    """

    def reschedule():
        loop.call_after(1, reschedule)

    loop.call_after(1, reschedule)
    with pytest.raises(SimulationError):
        loop.run(max_events=100)
    assert loop.events_processed == 100


def test_max_events_accumulates_across_runs(loop):
    for i in range(10):
        loop.call_after(i + 1, lambda: None)
    loop.run(max_events=50)
    assert loop.events_processed == 10
    for i in range(10):
        loop.call_after(i + 1, lambda: None)
    with pytest.raises(SimulationError):
        loop.run(max_events=5)
    assert loop.events_processed == 15


def test_events_processed_counter(loop):
    for i in range(5):
        loop.call_after(i + 1, lambda: None)
    cancelled = loop.call_after(10, lambda: None)
    cancelled.cancel()
    loop.run()
    assert loop.events_processed == 5


def test_peek_next_time_skips_cancelled(loop):
    e1 = loop.call_after(10, lambda: None)
    loop.call_after(20, lambda: None)
    e1.cancel()
    assert loop.peek_next_time() == 20


def test_run_while_running_rejected(loop):
    def reenter():
        with pytest.raises(SimulationError):
            loop.run()

    loop.call_after(1, reenter)
    loop.run()


# -- lazy deletion / heap compaction ----------------------------------------


def test_pending_count_is_exact_under_cancellation(loop):
    events = [loop.call_after(100 + i, lambda: None) for i in range(10)]
    assert loop.pending_count() == 10
    for e in events[:4]:
        e.cancel()
    assert loop.pending_count() == 6
    # double-cancel must not double-count
    events[0].cancel()
    assert loop.pending_count() == 6


def test_cancel_after_fire_is_noop(loop):
    event = loop.call_after(10, lambda: None)
    loop.run()
    event.cancel()
    assert loop.pending_count() == 0
    assert not event.pending


def test_heap_growth_bounded_under_timer_rearm_churn(loop):
    """Re-arming a timer 20k times must not grow the heap by 20k entries.

    This is the pacing/RTO pattern: each re-arm cancels the previous
    far-future event and pushes a new one. Lazy deletion alone would
    accumulate every cancelled entry until its expiry; compaction keeps
    heap size proportional to the live count.
    """
    from repro.sim.timer import Timer

    timer = Timer(loop, lambda: None)
    for i in range(20_000):
        timer.start(1_000_000 + i)  # always re-armed into the far future
    assert loop.pending_count() == 1
    # Compaction bounds the heap at ~2x the compaction floor, not 20k.
    assert len(loop._heap) < 2_000
    assert loop.compactions > 0


def test_compaction_preserves_firing_order(loop):
    seen = []
    keep = []
    for i in range(600):
        loop.call_at(1_000 + i, lambda i=i: seen.append(i))
        keep.append(i)
    # Cancel every other event to push past the compaction threshold.
    cancelled = []
    for i in range(2_000):
        e = loop.call_at(5_000 + i, lambda: seen.append("dead"))
        e.cancel()
        cancelled.append(i)
    loop.run()
    assert seen == list(range(600))


def test_explicit_compact_drops_cancelled_entries(loop):
    live = loop.call_after(100, lambda: None)
    dead = [loop.call_after(200 + i, lambda: None) for i in range(50)]
    for e in dead:
        e.cancel()
    assert len(loop._heap) == 51
    loop.compact()
    assert len(loop._heap) == 1
    assert loop.pending_count() == 1
    assert live.pending


def test_peek_next_time_updates_cancel_accounting(loop):
    first = loop.call_after(10, lambda: None)
    loop.call_after(20, lambda: None)
    first.cancel()
    assert loop.peek_next_time() == 20
    assert loop.pending_count() == 1
    assert len(loop._heap) == 1


# -- firing order against a sorted-list model -----------------------------------


@pytest.mark.parametrize("make_loop", LOOP_FACTORIES)
@pytest.mark.parametrize("seed", [7, 23, 1009])
def test_firing_order_matches_sorted_list_model(make_loop, seed):
    """Every fire is the minimum ``(when, seq)`` among the live schedules.

    The model is a plain sorted list of ``(when, seq)`` with *seq* counted
    here, one per schedule call, and passed to the callback so a fire
    identifies its own entry. The workload mixes sub-ms and
    multi-ms delays, exact time ties, cancels and cancel-then-re-arm, and
    cancels enough to push the heap through several compactions.
    """
    loop = make_loop()
    rng = random.Random(seed)
    model = []  # sorted (when, seq) of live schedules
    events = {}  # seq -> (Event, model entry)
    fired = []
    next_seq = [0]

    def pick_delay() -> int:
        roll = rng.random()
        if roll < 0.1:
            return rng.choice((0, 1_000, 1 << 21))  # exact ties
        if roll < 0.4:
            return rng.randrange(0, 1 << 21)
        if roll < 0.8:
            return rng.randrange(1 << 21, 40_000_000)
        return rng.randrange(40_000_000, 600_000_000)

    def schedule() -> None:
        next_seq[0] += 1
        seq = next_seq[0]
        delay = pick_delay()
        entry = (loop.now + delay, seq)
        bisect.insort(model, entry)
        events[seq] = (loop.call_after(delay, fire, seq), entry)

    def cancel_random() -> None:
        event, entry = events.pop(rng.choice(sorted(events)))
        event.cancel()
        model.remove(entry)

    def fire(seq: int) -> None:
        assert model, "loop fired an event the model does not hold"
        assert (loop.now, seq) == model[0]
        fired.append(model.pop(0))
        del events[seq]
        roll = rng.random()
        if roll < 0.55:
            schedule()
        if roll < 0.25 and events:
            cancel_random()
        elif roll < 0.45 and events:
            cancel_random()
            schedule()  # re-arm, the hrtimer pattern

    for _ in range(60):
        schedule()
    # A burst of far timers cancelled at once: past _COMPACT_MIN, so the
    # heap is rebuilt mid-workload.
    for _ in range(1_500):
        schedule()
    for _ in range(1_400):
        cancel_random()
    horizon = 3_000_000_000
    loop.run(until=horizon)
    assert len(fired) > 200
    assert fired == sorted(fired)
    assert loop.compactions > 0
    assert loop.events_processed == len(fired)
    assert loop.pending_count() == len(model)
    assert all(when > horizon for when, _ in model)
