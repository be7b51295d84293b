import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsnn.plasticity import (
    PlasticityParams,
    apply_rstdp,
    apply_stdp,
    eligibility,
    make_traces,
    normalize_incoming,
    update_traces,
)
from lcsnn.topology import LcShape, LocalConnection

STDP = PlasticityParams(eta_pre=0.0001, eta_post=0.01)


def test_trace_decay_closed_form():
    tr = make_traces(1, 1)
    tr.p_plus[:] = 0.01
    update_traces(tr, np.zeros(1, bool), np.zeros(1, bool), STDP, dt=1.0)
    assert tr.p_plus[0] == pytest.approx(0.01 * math.exp(-0.05), abs=1e-12)


def test_trace_impulse_responses():
    tr = make_traces(1, 1)
    update_traces(tr, np.ones(1, bool), np.zeros(1, bool), STDP, dt=1.0)
    assert tr.p_plus[0] == STDP.eta_post
    tr = make_traces(1, 1)
    update_traces(tr, np.zeros(1, bool), np.ones(1, bool), STDP, dt=1.0)
    assert tr.p_minus[0] == -STDP.eta_pre


def test_eligibility_zero_without_spikes():
    tr = make_traces(3, 2)
    tr.p_plus[:] = 0.5
    tr.p_minus[:] = -0.5
    xi = eligibility(tr, np.zeros(3, bool), np.zeros(2, bool))
    assert (xi == 0).all()


def _pair_xi(pre_t: int, post_t: int, steps: int, params: PlasticityParams) -> float:
    """Cumulative eligibility of a 1x1 connection with one pre and one post spike."""
    tr = make_traces(1, 1)
    total = 0.0
    for t in range(steps):
        pre = np.array([t == pre_t])
        post = np.array([t == post_t])
        update_traces(tr, pre, post, params, dt=1.0)
        total += eligibility(tr, pre, post)[0, 0]
    return total


def test_causal_pair_potentiates_with_exact_decay():
    got = _pair_xi(pre_t=0, post_t=5, steps=6, params=STDP)
    assert got == pytest.approx(0.01 * math.exp(-5.0 / 20.0), abs=1e-9)
    assert got == pytest.approx(0.0077880078, abs=1e-9)


def test_acausal_pair_depresses_with_exact_decay():
    got = _pair_xi(pre_t=3, post_t=0, steps=4, params=STDP)
    assert got == pytest.approx(-0.0001 * math.exp(-3.0 / 20.0), abs=1e-9)
    assert got == pytest.approx(-0.0000860708, abs=1e-9)


def test_apply_stdp_examples():
    p = PlasticityParams(eta_pre=0.0001, eta_post=0.01, gamma=1.0)
    w = np.array([[0.5]])
    assert apply_stdp(w, np.zeros((1, 1)), p)[0, 0] == 0.5
    assert apply_stdp(np.array([[0.9999]]), np.array([[0.01]]), p)[0, 0] == 1.0
    assert apply_stdp(np.array([[0.5]]), np.array([[-0.001]]), p)[0, 0] == pytest.approx(0.499)


def test_apply_rstdp_modulation():
    p = PlasticityParams(eta_pre=0.1, eta_post=0.1, gamma=1.0)
    w = np.full((2, 2), 0.5)
    xi = np.array([[0.01, -0.02], [0.0, 0.03]])
    assert (apply_rstdp(w, xi, 0.0, p) == w).all()
    up = apply_rstdp(w, xi, 1.0, p)
    down = apply_rstdp(w, xi, -1.0, p)
    assert np.allclose(up - w, -(down - w))


def test_rstdp_composes_with_ltp_example():
    p = PlasticityParams(eta_pre=0.0001, eta_post=0.01, gamma=1.0)
    xi = 0.01 * math.exp(-5.0 / 20.0)
    w = apply_rstdp(np.array([0.5]), np.array([xi]), 1.0, p)
    assert w[0] == pytest.approx(0.5077880078, abs=1e-9)


def test_rstdp_with_unit_reward_is_bitwise_stdp():
    p = PlasticityParams(eta_pre=0.02, eta_post=0.03, gamma=1.7)
    rng = np.random.default_rng(3)
    w_a = rng.random((4, 3))
    w_b = w_a.copy()
    for _ in range(200):
        xi = rng.normal(scale=0.01, size=(4, 3))
        w_a = apply_stdp(w_a, xi, p)
        w_b = apply_rstdp(w_b, xi, 1.0, p)
        assert (w_a == w_b).all()


def test_stepwise_traces_equal_pair_sum_oracle():
    """Cumulative trace-based updates must equal the direct double sum over
    all spike pairs (clipping disabled so the comparison is linear)."""
    params = PlasticityParams(
        eta_pre=0.02, eta_post=0.03, tau_plus=17.0, tau_minus=23.0, gamma=1.3,
        w_min=-1e9, w_max=1e9,
    )
    rng = np.random.default_rng(11)
    steps = 50
    pre = rng.random((steps, 3)) < 0.25
    post = rng.random((steps, 2)) < 0.2

    w = np.zeros((3, 2))
    tr = make_traces(3, 2)
    for t in range(steps):
        update_traces(tr, pre[t], post[t], params, dt=1.0)
        w = apply_stdp(w, eligibility(tr, pre[t], post[t]), params)

    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for tp in np.flatnonzero(pre[:, i]):
                for tq in np.flatnonzero(post[:, j]):
                    if tq >= tp:  # causal: post at or after pre
                        expected[i, j] += params.gamma * params.eta_post * math.exp(
                            -(tq - tp) / params.tau_plus
                        )
                    if tp >= tq:  # acausal: pre at or after post
                        expected[i, j] -= params.gamma * params.eta_pre * math.exp(
                            -(tp - tq) / params.tau_minus
                        )
    assert np.abs(w - expected).max() < 1e-10


def _lc_conn(weights: np.ndarray) -> LocalConnection:
    k = weights.shape[-1]
    shape = LcShape(h_in=k, w_in=k, ch_out=weights.shape[0], k=k, s=1)
    return LocalConnection(shape=shape, weights=weights)


def test_normalize_uniform_and_proportional():
    conn = _lc_conn(np.full((1, 1, 1, 2, 2), 0.5))
    skipped = normalize_incoming(conn, 0.25)
    assert skipped == 0
    assert np.allclose(conn.weights, 0.25)

    w = np.zeros((1, 1, 1, 2, 2))
    w[0, 0, 0] = [[0.2, 0.6], [0.2, 0.6]]
    conn = _lc_conn(w)
    normalize_incoming(conn, 0.25)
    assert np.allclose(conn.weights[0, 0, 0], [[0.125, 0.375], [0.125, 0.375]])


def test_normalize_skips_all_zero_rows():
    conn = _lc_conn(np.zeros((1, 1, 1, 3, 3)))
    skipped = normalize_incoming(conn, 0.25)
    assert skipped == 1
    assert (conn.weights == 0).all()


def test_normalize_is_idempotent_and_exact():
    rng = np.random.default_rng(5)
    conn = _lc_conn(rng.random((4, 1, 1, 5, 5)))
    normalize_incoming(conn, 0.25)
    once = conn.weights.copy()
    means = once.reshape(4, -1).mean(axis=1)
    assert np.abs(means - 0.25).max() < 1e-9
    normalize_incoming(conn, 0.25)
    assert np.abs(conn.weights - once).max() < 1e-12


def test_normalize_respects_upper_bound_in_scale_up_corner():
    # one dominant weight at the bound, mean below target: scaling up naively
    # would push it past w_max
    w = np.zeros((1, 1, 1, 3, 3))
    w[0, 0, 0].flat[0] = 1.0
    w[0, 0, 0].flat[1] = 0.5
    conn = _lc_conn(w)
    normalize_incoming(conn, 0.25, w_max=1.0)
    row = conn.weights.reshape(-1)
    assert row.max() <= 1.0 + 1e-15
    assert row.mean() == pytest.approx(0.25, abs=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_trace_sign_invariants_hold_for_random_rasters(seed):
    params = PlasticityParams(eta_pre=0.05, eta_post=0.07)
    rng = np.random.default_rng(seed)
    tr = make_traces(5, 4)
    for _ in range(40):
        update_traces(tr, rng.random(5) < 0.3, rng.random(4) < 0.3, params, dt=1.0)
        assert (tr.p_plus >= 0).all()
        assert (tr.p_minus <= 0).all()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_clip_keeps_weights_inside_bounds(seed):
    params = PlasticityParams(eta_pre=0.3, eta_post=0.4)
    rng = np.random.default_rng(seed)
    w = rng.random((3, 3))
    for _ in range(20):
        xi = rng.normal(scale=0.5, size=(3, 3))
        w = apply_stdp(w, xi, params)
        assert (w >= 0.0).all() and (w <= 1.0).all()
    # idempotence: a zero update leaves clipped weights exactly alone
    assert (apply_stdp(w, np.zeros((3, 3)), params) == w).all()


def test_invalid_plasticity_params():
    with pytest.raises(ValueError):
        PlasticityParams(eta_pre=-0.1, eta_post=0.1)
    with pytest.raises(ValueError):
        PlasticityParams(eta_pre=0.1, eta_post=0.1, tau_plus=0.0)
    with pytest.raises(ValueError):
        PlasticityParams(eta_pre=0.1, eta_post=0.1, w_min=1.0, w_max=0.0)
    with pytest.raises(ValueError):
        PlasticityParams(eta_pre=0.1, eta_post=0.1, c_norm=1.5)
    with pytest.raises(ValueError):
        update_traces(make_traces(2, 2), np.zeros(3, bool), np.zeros(2, bool), STDP, 1.0)
