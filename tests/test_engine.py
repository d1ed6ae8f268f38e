import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iamac_sim.engine import BLOCK, Engine, RandomStreams


def pending_count(e):
    """The events in `e`'s queue that are not cancelled."""
    return sum(1 for _, _, ev in e._heap if not ev.cancelled)


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
    # and so is running to a time behind the clock
    with pytest.raises(RuntimeError):
        e.run_until(4.9)
    assert e.now == 5.0


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


def take_seq(e):
    """The next sequence number, taken as `schedule` takes one."""
    seq = e.next_seq
    e.next_seq = seq + 1
    return seq


def test_periodic_event_by_rearm_matches_scheduling_anew():
    # the source of test_periodic_event_dispatch_count, re-arming one event
    e = Engine()
    times = []

    def tick(ev):
        times.append(e.now)
        e.rearm(ev, e.now + 1.0, take_seq(e))

    e.schedule(1.0, tick)
    assert e.run_until(10.0) == 10
    assert times == [float(t) for t in range(1, 11)]
    # the first schedule and ten re-arms, the last still pending
    assert e.scheduled_count == 11
    assert pending_count(e) == 1


def test_rearmed_event_takes_the_next_sequence_number():
    e = Engine()
    order = []

    def rearm(ev):
        order.append("rearm")
        if len(order) == 1:
            e.rearm(ev, 2.0, take_seq(e))
            e.schedule(2.0, lambda ev: order.append("after"))

    e.schedule(2.0, lambda ev: order.append("before"))
    e.schedule(1.0, rearm)
    e.run_until(5.0)
    # already scheduled for 2.0 first, then the re-armed event, then later ones
    assert order == ["rearm", "before", "rearm", "after"]
    assert e.scheduled_count == 4


def test_rearming_at_an_earlier_sequence_number_dispatches_first():
    e = Engine()
    order = []

    def rearm(ev):
        order.append("rearm")
        if len(order) == 1:
            e.schedule(2.0, lambda ev: order.append("later"))
            # the number taken before "later" was scheduled orders first
            e.rearm(ev, 2.0, seq)

    e.schedule(1.0, rearm)
    seq = take_seq(e)
    e.schedule(2.0, lambda ev: order.append("after"))
    e.run_until(5.0)
    assert order == ["rearm", "rearm", "after", "later"]
    assert e.scheduled_count == 4


@pytest.mark.parametrize("rearmed", [False, True])
def test_one_event_rearmed_twice_dispatches_where_fresh_events_would(rearmed):
    # at 0.5 one callback arms two checks at 2.0 around a `schedule` call at
    # 2.0: as fresh events, or as numbers reserved for the event pending at
    # 1.0, which re-arms at each of them in turn
    e = Engine()
    order = []
    keys = []

    def check(ev):
        order.append(("check", e.now))
        if keys:
            e.rearm(ev, *keys.pop(0))

    def arm(ev):
        for tag in ("first", None, "second"):
            if tag is None:
                e.schedule(2.0, lambda ev: order.append(("other", e.now)))
            elif rearmed:
                keys.append((2.0, take_seq(e)))
            else:
                e.schedule(2.0, check)

    e.schedule(0.5, arm)
    e.schedule(1.0, check)
    e.schedule(2.0, lambda ev: order.append(("before", e.now)))
    e.run_until(5.0)
    assert order == [("check", 1.0), ("before", 2.0), ("check", 2.0), ("other", 2.0),
                     ("check", 2.0)]
    assert e.scheduled_count == 6
    assert e.dispatched_count == 6


def test_next_key_is_the_next_due_entry_or_the_run_end():
    e = Engine()
    keys = []
    e.schedule(1.0, lambda ev: keys.append(e.next_key()))
    e.schedule(2.0, lambda ev: keys.append(e.next_key()))
    e.schedule(7.0, lambda ev: None)
    e.run_until(5.0)
    # the 7.0 entry is past this run's end
    assert keys == [(2.0, 1), (5.0, math.inf)]


def test_rearming_into_the_past_is_a_hard_fault():
    e = Engine()
    raised = []

    def rearm(ev):
        with pytest.raises(RuntimeError):
            e.rearm(ev, 0.5, ev.seq)
        raised.append(e.now)

    e.schedule(1.0, rearm)
    e.run_until(2.0)
    assert raised == [1.0]
    assert e.scheduled_count == 1 and pending_count(e) == 0


def test_cancelled_rearmed_event_never_fires():
    e = Engine()
    fired = []

    def once(ev):
        fired.append(e.now)
        e.rearm(ev, 3.0, take_seq(e))
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
                                 + pending_count(e))


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
# stream's doubles and bounded integers from block-drawn raw words; all keep
# every value and the stream position. A numpy change to any of these
# formulas fails here.

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
DRAW_CALL = st.one_of(
    st.tuples(st.just("random"), st.integers(min_value=1, max_value=BLOCK + 10)),
    st.tuples(st.just("uniform"), BOUND, BOUND),
    st.tuples(st.just("take"), st.sampled_from([0, 1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1,
                                                2 * BLOCK + 5])))
DRAW_CALLS = st.lists(DRAW_CALL, max_size=12)
# a uniform call whose bounds are 0.0 and -0.0: `Generator.uniform` refuses
# (0.0, -0.0), since high - low < 0, so -0.0 must come first
SIGNED_ZEROS = [("uniform", 0.0, -0.0)]


def ordered(bounds):
    """`bounds` ascending, with -0.0 before 0.0."""
    return sorted(bounds, key=lambda x: (x, math.copysign(1.0, x)))


@settings(max_examples=100, deadline=None)
@given(calls=DRAW_CALLS, seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(calls=SIGNED_ZEROS, seed=0)
def test_block_draws_equal_the_generator_calls(calls, seed):
    draws = RandomStreams(seed).draws("channel")
    gen = RandomStreams(seed).stream("channel")
    for call in calls:
        if call[0] == "random":
            got = [draws.random() for _ in range(call[1])]
            assert got == [gen.random() for _ in range(call[1])]
            assert all(type(x) is float for x in got)
        elif call[0] == "uniform":
            lo, hi = ordered(call[1:])
            assert draws.uniform(lo, hi) == float(gen.uniform(lo, hi))
        else:
            assert draws.take(call[1]).tolist() == gen.random(call[1]).tolist()
    # both left the stream at the same position
    assert draws.random() == gen.random()


SPANS = [1, 2, 3, 8, 1000, 2**31 + 7, 2**32 - 1]
# ("integers", lo, span, m): m calls of integers(lo, lo + span) in a row; an
# odd m leaves the upper half of a word pending
MIXED_CALLS = st.lists(st.one_of(
    DRAW_CALL,
    st.tuples(st.just("integers"), st.integers(min_value=-10**6, max_value=10**6),
              st.sampled_from(SPANS), st.integers(min_value=1, max_value=9))),
    max_size=16)


@settings(max_examples=150, deadline=None)
@given(calls=MIXED_CALLS, seed=st.integers(min_value=0, max_value=2**32 - 1))
# a half word pending at a refill: the block's last word is split, the next
# double refills, and the kept half feeds the next integers() call
@example(calls=[("random", BLOCK - 1), ("integers", 0, 8, 1), ("random", 1),
                ("integers", 0, 8, 1), ("take", BLOCK), ("integers", 5, 1000, 3)],
         seed=7)
# the same with a `take` that runs past the block's end, then rejections on
# a 2**31 + 7 span
@example(calls=[("random", BLOCK - 1), ("integers", 0, 8, 1), ("take", 3),
                ("integers", 0, 8, 1), ("integers", -3, 2**31 + 7, 9)], seed=11)
@example(calls=SIGNED_ZEROS, seed=0)
def test_block_integers_equal_the_generator_calls(calls, seed):
    draws = RandomStreams(seed).draws("contention")
    gen = RandomStreams(seed).stream("contention")
    for call in calls:
        if call[0] == "integers":
            _, lo, span, m = call
            got = [draws.integers(lo, lo + span) for _ in range(m)]
            assert got == [gen.integers(lo, lo + span) for _ in range(m)]
            assert all(type(x) is int for x in got)
        elif call[0] == "random":
            assert [draws.random() for _ in range(call[1])] == gen.random(call[1]).tolist()
        elif call[0] == "uniform":
            lo, hi = ordered(call[1:])
            assert draws.uniform(lo, hi) == float(gen.uniform(lo, hi))
        else:
            assert draws.take(call[1]).tolist() == gen.random(call[1]).tolist()
    # both left the stream, and any pending half word, at the same place
    assert draws.integers(0, 1000) == gen.integers(0, 1000)
    assert draws.random() == gen.random()


@pytest.mark.parametrize("lo, hi", [(0, 0), (5, 3), (0, 2**32), (-1, 2**32)])
def test_block_integers_refuse_a_span_outside_32_bits(lo, hi):
    with pytest.raises(ValueError, match="span"):
        RandomStreams(1).draws("contention").integers(lo, hi)


def test_a_label_is_handed_out_in_one_form():
    streams = RandomStreams(3)
    streams.stream("bootstrap")
    with pytest.raises(ValueError, match="'bootstrap'"):
        streams.draws("bootstrap")
    draws = streams.draws("channel")
    with pytest.raises(ValueError, match="'channel'"):
        streams.stream("channel")
    assert streams.draws("channel") is draws
