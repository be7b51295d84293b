import math

import numpy as np
import pytest

from lcsnn.neurons import NeuronParams, make_state, step


def params(**kw):
    defaults = dict(u_rest=-65.0, u_reset=-65.0, u_thr0=-52.0, tau_m=20.0,
                    delta_t_ref=5.0, g0=0.05, tau_g=1.0e6, adaptive=True)
    defaults.update(kw)
    return NeuronParams(**defaults)


def test_pure_relaxation_step():
    p = params()
    st = make_state(1, p)
    st.u[:] = -60.0
    spikes = step(st, p, np.zeros(1), dt=1.0)
    assert not spikes.any()
    assert st.u[0] == pytest.approx(-60.25, abs=1e-12)


def test_spike_at_threshold_resets_and_adapts():
    p = params()
    st = make_state(1, p)
    st.u[:] = p.u_thr0
    # drive comfortably above the one-tick leak so the potential stays at threshold
    spikes = step(st, p, np.array([1.0]), dt=1.0)
    assert spikes.all()
    assert st.u[0] == p.u_reset
    assert st.g[0] == pytest.approx(p.g0)
    assert st.refrac_remaining[0] == 5


def test_refractory_ignores_input_and_counts_down():
    p = params()
    st = make_state(1, p)
    st.refrac_remaining[:] = 3
    st.u[:] = -60.0
    spikes = step(st, p, np.array([100.0]), dt=1.0)
    assert not spikes.any()
    assert st.u[0] == pytest.approx(-60.25)  # leak only, the +100 is gated off
    assert st.refrac_remaining[0] == 2


def test_refractory_window_is_exact():
    p = params(delta_t_ref=5.0)
    st = make_state(1, p)
    drive = np.array([100.0])
    assert step(st, p, drive, dt=1.0).all()
    for _ in range(5):  # ceil(5/1) gated ticks, however hard we push
        assert not step(st, p, drive, dt=1.0).any()
    assert step(st, p, drive, dt=1.0).all()


def test_refractory_window_scales_with_dt():
    p = params(delta_t_ref=5.0)
    assert p.refractory_steps(0.5) == 10
    assert p.refractory_steps(2.0) == 3  # ceil(5/2)
    st = make_state(1, p)
    drive = np.array([100.0])
    assert step(st, p, drive, dt=0.5).all()
    for _ in range(10):
        assert not step(st, p, drive, dt=0.5).any()
    assert step(st, p, drive, dt=0.5).all()


def test_two_spikes_raise_threshold_monotonically():
    p = params(delta_t_ref=0.0, tau_g=100.0, g0=0.5)
    st = make_state(1, p)
    drive = np.array([100.0])
    step(st, p, drive, dt=1.0)
    g_after_one = st.g[0]
    step(st, p, drive, dt=1.0)
    g_after_two = st.g[0]
    assert g_after_one == pytest.approx(0.5)
    assert g_after_two == pytest.approx(0.5 * math.exp(-1.0 / 100.0) + 0.5)
    assert g_after_two > g_after_one


def test_zero_input_trajectory_matches_euler_power():
    p = params()
    st = make_state(1, p)
    u0 = -40.0  # above threshold is irrelevant: relaxation from any start
    st.u[:] = u0
    st.g[:] = 1e9  # silence spiking so the trajectory is pure relaxation
    gaps = [abs(st.u[0] - p.u_rest)]
    for k in range(1, 21):
        step(st, p, np.zeros(1), dt=1.0)
        gaps.append(abs(st.u[0] - p.u_rest))
        expected = (u0 - p.u_rest) * (1.0 - 1.0 / p.tau_m) ** k
        assert st.u[0] - p.u_rest == pytest.approx(expected, abs=1e-12)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_adaptation_disabled_keeps_g_zero():
    p = params(adaptive=False, delta_t_ref=0.0)
    st = make_state(3, p)
    for _ in range(50):
        step(st, p, np.full(3, 30.0), dt=1.0)
    assert (st.g == 0.0).all()


def test_threshold_decay_matches_exponential():
    p = params(tau_g=1000.0)
    st = make_state(1, p)
    st.g[:] = 0.7
    for k in range(1, 30):
        step(st, p, np.zeros(1), dt=1.0)
        assert st.g[0] == pytest.approx(0.7 * math.exp(-k / 1000.0), abs=1e-12)


def test_dimension_mismatch_raises():
    p = params()
    st = make_state(3, p)
    with pytest.raises(ValueError):
        step(st, p, np.zeros(4), dt=1.0)


def test_invalid_params_raise():
    with pytest.raises(ValueError):
        params(tau_m=0.0)
    with pytest.raises(ValueError):
        params(tau_g=-1.0)
    with pytest.raises(ValueError):
        params(delta_t_ref=-1.0)
    with pytest.raises(ValueError):
        params(u_reset=-40.0)  # above threshold: would fire unconditionally
    with pytest.raises(ValueError):
        step(make_state(1, params()), params(), np.zeros(1), dt=0.0)
