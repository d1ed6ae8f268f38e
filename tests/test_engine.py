import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iamac_sim.engine import BLOCK, Engine, RandomStreams


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


def test_periodic_event_by_reschedule_matches_scheduling_anew():
    # the source of test_periodic_event_dispatch_count, re-arming one event
    e = Engine()
    times = []

    def tick(ev):
        times.append(e.now)
        e.reschedule(ev, e.now + 1.0)

    e.schedule(1.0, tick)
    assert e.run_until(10.0) == 10
    assert times == [float(t) for t in range(1, 11)]
    # the first schedule and ten re-arms, the last still pending
    assert e.scheduled_count == 11
    assert e.pending_count == 1


def test_rearmed_event_takes_the_next_sequence_number():
    e = Engine()
    order = []

    def rearm(ev):
        order.append("rearm")
        if len(order) == 1:
            e.reschedule(ev, 2.0)
            e.schedule(2.0, lambda ev: order.append("after"))

    e.schedule(2.0, lambda ev: order.append("before"))
    e.schedule(1.0, rearm)
    e.run_until(5.0)
    # already scheduled for 2.0 first, then the re-armed event, then later ones
    assert order == ["rearm", "before", "rearm", "after"]
    assert e.scheduled_count == 4


def test_rearming_into_the_past_is_a_hard_fault():
    e = Engine()
    raised = []

    def rearm(ev):
        with pytest.raises(RuntimeError):
            e.reschedule(ev, 0.5)
        raised.append(e.now)

    e.schedule(1.0, rearm)
    e.run_until(2.0)
    assert raised == [1.0]
    assert e.scheduled_count == 1 and e.pending_count == 0


def test_cancelled_rearmed_event_never_fires():
    e = Engine()
    fired = []

    def once(ev):
        fired.append(e.now)
        e.reschedule(ev, 3.0)
        e.cancel(ev)

    e.schedule(1.0, once)
    e.run_until(10.0)
    assert fired == [1.0]
    assert e.scheduled_count == e.dispatched_count + e.cancelled_count == 2


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
    # two calls: each adds its own dispatches to the count
    e.run_until(25.0)
    e.run_until(50.0)
    assert e.scheduled_count == (e.dispatched_count + e.cancelled_count
                                 + e.pending_count)


def test_dispatches_before_a_raising_callback_are_counted():
    e = Engine()

    def boom(ev):
        raise KeyError("callback fault")

    for t in (1.0, 2.0):
        e.schedule(t, lambda ev: None)
    e.schedule(3.0, boom)
    e.schedule(4.0, lambda ev: None)
    with pytest.raises(KeyError):
        e.run_until(10.0)
    assert e.dispatched_count == 2
    assert e.now == 3.0
    # the run resumes after the fault and keeps counting
    assert e.run_until(10.0) == 1
    assert e.dispatched_count == 3
    assert e.scheduled_count == 4


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


# -- draw rewrites that keep the stream ------------------------------------------
#
# The MACs draw `b * rng.random()` where `rng.uniform(0.0, b)` stood, Seda
# draws its per-block corruption as one vector, and a `Draws` hands out a
# stream's doubles from block draws; all keep every value and the stream
# position. A numpy change to any of these formulas fails here.

@settings(max_examples=200, deadline=None)
@given(bounds=st.lists(st.floats(min_value=0.0, max_value=1e12, exclude_min=True,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=50),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_scaled_random_equals_uniform_from_zero(bounds, seed):
    a = RandomStreams(seed).stream("contention")
    b = RandomStreams(seed).stream("contention")
    for bound in bounds:
        assert bound * a.random() == float(b.uniform(0.0, bound))
    # both left the stream at the same position
    assert a.random() == b.random()


@pytest.mark.parametrize("n", [1, 7, 130])
def test_vector_block_draws_equal_the_scalar_loop(n):
    a = RandomStreams(5).stream("channel")
    b = RandomStreams(5).stream("channel")
    for p_block in (0.0, 1e-3, 0.3, 0.9, 1.0):
        assert (a.random(n) < p_block).tolist() == [bool(b.random() < p_block)
                                                    for _ in range(n)]
    assert a.random() == b.random()


BOUND = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)
# ("random", m): m calls in a row, so sequences cross block refills
DRAW_CALLS = st.lists(st.one_of(
    st.tuples(st.just("random"), st.integers(min_value=1, max_value=BLOCK + 10)),
    st.tuples(st.just("uniform"), BOUND, BOUND),
    st.tuples(st.just("take"), st.sampled_from([0, 1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1,
                                                2 * BLOCK + 5]))),
    max_size=12)


@settings(max_examples=100, deadline=None)
@given(calls=DRAW_CALLS, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_block_draws_equal_the_generator_calls(calls, seed):
    draws = RandomStreams(seed).draws("channel")
    gen = RandomStreams(seed).stream("channel")
    for call in calls:
        if call[0] == "random":
            got = [draws.random() for _ in range(call[1])]
            assert got == [gen.random() for _ in range(call[1])]
            assert all(type(x) is float for x in got)
        elif call[0] == "uniform":
            lo, hi = sorted(call[1:])
            assert draws.uniform(lo, hi) == float(gen.uniform(lo, hi))
        else:
            assert draws.take(call[1]).tolist() == gen.random(call[1]).tolist()
    # both left the stream at the same position
    assert draws.random() == gen.random()


def test_a_label_is_handed_out_in_one_form():
    streams = RandomStreams(3)
    streams.stream("bootstrap")
    with pytest.raises(ValueError, match="'bootstrap'"):
        streams.draws("bootstrap")
    draws = streams.draws("channel")
    with pytest.raises(ValueError, match="'channel'"):
        streams.stream("channel")
    assert streams.draws("channel") is draws
