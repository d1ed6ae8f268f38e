import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iamac_sim.engine import Engine, RandomStreams


def test_zero_delay_fires_before_later_events():
    e = Engine()
    order = []
    e.schedule(5.0, lambda ev: order.append("later"))
    e.schedule(0.0, lambda ev: order.append("now"))
    e.run_until(10.0)
    assert order == ["now", "later"]


def test_equal_fire_times_dispatch_in_insertion_order():
    e = Engine()
    order = []
    for tag in ("a", "b", "c"):
        e.schedule(1.0, lambda ev, t=tag: order.append(t))
    e.run_until(1.0)
    assert order == ["a", "b", "c"]


def test_cancelled_event_never_dispatched():
    e = Engine()
    fired = []
    e.schedule(1.0, lambda ev: fired.append(1))
    h = e.schedule(2.0, lambda ev: fired.append(2))
    e.schedule(3.0, lambda ev: fired.append(3))
    e.cancel(h)
    n = e.run_until(10.0)
    assert fired == [1, 3]
    assert n == 2


def test_cancelling_no_event_is_a_noop():
    e = Engine()
    e.cancel(None)
    assert e.cancelled_count == 0


def test_scheduling_in_the_past_is_a_hard_fault():
    e = Engine()
    e.run_until(5.0)
    with pytest.raises(RuntimeError):
        e.schedule(4.9, lambda ev: None)


def test_empty_run_until_advances_clock():
    e = Engine()
    assert e.run_until(100.0) == 0
    assert e.now == 100.0


def test_periodic_event_dispatch_count():
    e = Engine()
    count = [0]

    def tick(ev):
        count[0] += 1
        e.schedule(e.now + 1.0, tick)

    e.schedule(1.0, tick)
    dispatched = e.run_until(10.0)
    assert count[0] == 10
    assert dispatched == 10


def test_run_until_is_idempotent_at_same_time():
    e = Engine()
    e.schedule(1.0, lambda ev: None)
    assert e.run_until(5.0) == 1
    assert e.run_until(5.0) == 0


def test_clock_monotone_during_dispatch():
    e = Engine()
    seen = []
    for t in (3.0, 1.0, 2.0, 1.0):
        e.schedule(t, lambda ev: seen.append(e.now))
    e.run_until(10.0)
    assert seen == sorted(seen)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0),
                          st.booleans()), max_size=40))
@settings(max_examples=60, deadline=None)
def test_no_lost_events(spec):
    e = Engine()
    handles = []
    for t, cancel in spec:
        handles.append((e.schedule(t, lambda ev: None), cancel))
    for h, cancel in handles:
        if cancel:
            e.cancel(h)
    e.run_until(50.0)
    assert e.scheduled_count == (e.dispatched_count + e.cancelled_count
                                 + e.pending_count)


def test_same_seed_same_label_identical_draws():
    a = RandomStreams(1).stream("topology").random(20)
    b = RandomStreams(1).stream("topology").random(20)
    assert list(a) == list(b)


def test_different_seed_differs():
    a = RandomStreams(1).stream("topology").random(20)
    b = RandomStreams(2).stream("topology").random(20)
    assert list(a) != list(b)


def test_labels_are_independent():
    before = RandomStreams(7).stream("contention").random(10)
    s = RandomStreams(7)
    # drawing heavily from another label must not perturb this one
    s.stream("traffic").random(1000)
    after = s.stream("contention").random(10)
    assert list(before) == list(after)


def test_uniform_mean_smoke():
    draws = RandomStreams(123).stream("x").random(100_000)
    assert abs(draws.mean() - 0.5) < 0.01
