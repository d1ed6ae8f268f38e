import pytest

from iamac_sim.config import Scenario
from iamac_sim.frames import MAX_TIME_FRAME, build_frame_plan


def is_super_frame(plan):
    return plan.n_time_frames > 1


def plan_of(frame_s, **overrides):
    """The frame plan of the reference scenario with `frame_s` frames."""
    return Scenario(frame_s=frame_s, **overrides).frame_plan()


def test_short_request_uses_single_time_frame():
    plan = plan_of(1.0)
    assert plan.n_time_frames == 1
    assert plan.time_frame == 1.0
    assert plan.cycle == 1.0


def test_long_request_builds_super_frame():
    plan = plan_of(100.0)
    assert plan.n_time_frames == 9
    assert plan.time_frame == pytest.approx(100.0 / 9)
    assert is_super_frame(plan)


def test_twelve_seconds_is_inclusive_boundary():
    plan = plan_of(12.0)
    assert plan.n_time_frames == 1


def test_rts_slot_is_w_mini_slots():
    plan = plan_of(1.0, w=8, mini_slot_s=0.016)
    assert plan.rts_slot == pytest.approx(0.128)


def test_mini_slot_must_cover_backoff_plus_airtime():
    with pytest.raises(ValueError):
        build_frame_plan(1.0, synch_slot=0.05, w=8, mini_slot=0.016, cts_slot=0.05,
                         max_backoff=0.0015, rts_airtime=0.0183)


def test_active_slots_must_fit():
    with pytest.raises(ValueError):
        plan_of(0.2)  # sleep/comm would be negative


def test_comm_windows_exclude_synch_slots():
    plan = plan_of(100.0)
    windows = plan.comm_windows(0.0)
    assert len(windows) == plan.n_time_frames
    tf = plan.time_frame
    # first window starts after the full active prefix
    assert windows[0][0] == pytest.approx(plan.synch_slot + plan.rts_slot + plan.cts_slot)
    for k, (s, e) in enumerate(windows):
        assert e == pytest.approx((k + 1) * tf)
        if k > 0:
            assert s == pytest.approx(k * tf + plan.synch_slot)


def test_slot_boundaries_computed_not_accumulated():
    plan = plan_of(1.0)
    base = 1234.5
    for k in range(plan.w):
        assert plan.mini_slot_start(base, k) == pytest.approx(
            base + plan.synch_slot + k * plan.mini_slot)


def test_super_frame_time_frames_bounded():
    plan = plan_of(35.0)
    assert plan.time_frame <= MAX_TIME_FRAME
    assert plan.n_time_frames == 3
