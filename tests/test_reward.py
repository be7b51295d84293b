import copy


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsnn.reward import RewardState, compute_reward, modulate


def test_reward_is_match_indicator():
    assert compute_reward(3, 3) == 1
    assert compute_reward(3, 7) == -1


def test_td_modulation_first_sample():
    state = RewardState(mode="td", eta_rpe=0.125, alpha=0.9)
    m = modulate(state, 1)
    assert m == pytest.approx(0.125)
    assert state.ema_r == pytest.approx(0.1)


def test_td_streak_saturates_then_amplifies_punishment():
    state = RewardState(mode="td", eta_rpe=0.125, alpha=0.9)
    for _ in range(400):
        m = modulate(state, 1)
    assert state.ema_r == pytest.approx(1.0, abs=1e-9)
    assert m == pytest.approx(0.0, abs=1e-9)
    m_wrong = modulate(state, -1)
    assert m_wrong == pytest.approx(-2 * 0.125, abs=1e-8)


def test_static_mode_passes_reward_through():
    state = RewardState(mode="static")
    assert modulate(state, -1) == -1.0
    assert modulate(state, 1) == 1.0
    assert state.ema_r == 0.0


def test_static_mode_is_stateless():
    rewards = [1, -1, -1, 1, 1, -1]
    a = RewardState(mode="static")
    forward = [modulate(a, r) for r in rewards]
    b = RewardState(mode="static")
    backward = [modulate(b, r) for r in reversed(rewards)]
    assert forward == list(reversed(backward))


def test_surprise_asymmetry_is_exactly_two_eta():
    state = RewardState(mode="td", eta_rpe=0.125, alpha=0.9, ema_r=0.37)
    plus = modulate(copy.deepcopy(state), 1)
    minus = modulate(copy.deepcopy(state), -1)
    assert plus - minus == pytest.approx(2 * 0.125, abs=1e-15)


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_td_bounds_hold_for_any_reward_sequence(rewards):
    state = RewardState(mode="td", eta_rpe=0.125, alpha=0.9)
    for r in rewards:
        m = modulate(state, r)
        assert abs(m) <= 2 * 0.125 + 1e-12
        assert -1.0 - 1e-12 <= state.ema_r <= 1.0 + 1e-12


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        RewardState(mode="bogus")
    with pytest.raises(ValueError):
        RewardState(alpha=1.5)
    with pytest.raises(ValueError):
        modulate(RewardState(), 0)
