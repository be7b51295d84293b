import hashlib
import math

import numpy as np
import pytest

from lcsnn.encoding import EncoderParams
from lcsnn.engine import (
    MODE_NONE,
    MODE_RSTDP_DECODER,
    MODE_STDP_LC,
    EngineError,
    PhaseSchedule,
    build_network,
    decide,
    evaluate,
    run_sample,
    sample_rng,
    train_decoder,
    train_lc,
)
from lcsnn.neurons import NeuronParams
from lcsnn.plasticity import PlasticityParams
from lcsnn.reward import RewardState
from tests.conftest import make_blob_dataset


def _hash(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def tiny_network(seed=0, n_out=4, n_c=2, **kw):
    # small receptive fields and few channels mean weak drives and small
    # winner-take-all volleys, so the toy layers need smaller threshold
    # gaps than the full-size configuration
    kw.setdefault("lc_params", NeuronParams(u_thr0=-60.0, adaptive=True))
    kw.setdefault("dec_params", NeuronParams(u_thr0=-62.0, adaptive=False))
    return build_network(h_in=8, w_in=8, ch_lc=3, k=4, s=4, n_out=n_out, n_c=n_c,
                         seed=seed, **kw)


def bright_image(side=8):
    return np.full((side, side), 255.0)


# --- decide ------------------------------------------------------------------


def test_decide_unique_max():
    assert decide(np.array([10, 4]), np.random.default_rng(0)) == 0


def test_decide_consumes_no_randomness_without_tie():
    rng = np.random.default_rng(0)
    decide(np.array([5, 1]), rng)
    assert rng.random() == np.random.default_rng(0).random()


def test_decide_partial_tie_uniform():
    rng = np.random.default_rng(1)
    picks = [decide(np.array([3, 7, 7]), rng) for _ in range(500)]
    assert set(picks) == {1, 2}
    assert abs(np.mean([p == 1 for p in picks]) - 0.5) < 0.07


def test_decide_full_tie_frequency():
    rng = np.random.default_rng(2)
    picks = [decide(np.array([0, 0]), rng) for _ in range(1000)]
    assert abs(np.mean(picks) - 0.5) < 0.05  # 3 sigma of Binomial(1000, .5) is 0.047


# --- run_sample contracts ----------------------------------------------------


def test_mode_none_is_pure():
    net = tiny_network()
    before = _hash(net.lc_conn.weights, net.dec_conn.weights, net.lc_g, net.dec_g)
    res = run_sample(net, bright_image(), PhaseSchedule(16, 16, 16),
                     sample_rng(0, 3, 0), mode=MODE_NONE)
    after = _hash(net.lc_conn.weights, net.dec_conn.weights, net.lc_g, net.dec_g)
    assert before == after
    assert res.decision in (0, 1)
    assert res.group_counts.shape == (2,)


def test_no_weight_change_outside_learning_period():
    net = tiny_network()
    state = RewardState(mode="static")
    before = _hash(net.dec_conn.weights)
    res = run_sample(net, bright_image(), PhaseSchedule(16, 16, 0), sample_rng(0, 2, 0),
                     mode=MODE_RSTDP_DECODER, target=0, reward_state=state)
    assert _hash(net.dec_conn.weights) == before  # t_learn = 0: phases before it never write
    assert res.reward in (-1.0, 1.0)


def test_weight_hash_constant_until_learning_phase():
    net = tiny_network()
    before = _hash(net.dec_conn.weights)
    at_decision_end = []
    run_sample(
        net, bright_image(), PhaseSchedule(16, 16, 16), sample_rng(0, 2, 9),
        mode=MODE_RSTDP_DECODER, target=0, reward_state=RewardState(mode="static"),
        on_step=lambda t, n: at_decision_end.append(_hash(n.dec_conn.weights))
        if t == 31 else None,
    )
    assert at_decision_end == [before]  # adapt + decision phases never write


def test_forced_routing_decides_deterministically():
    net = tiny_network()
    net.dec_conn.weights[:, :2] = 0.0   # group 0 receives nothing
    net.dec_conn.weights[:, 2:] = 1.0   # group 1 gets every feature spike
    res = run_sample(net, bright_image(), PhaseSchedule(0, 40, 0), sample_rng(0, 3, 1))
    assert res.group_counts[1] > 0
    assert res.group_counts[0] == 0
    assert res.decision == 1


def test_schedule_rejects_negative_durations_and_ticks():
    with pytest.raises(ValueError):
        PhaseSchedule(-1, 16, 16)
    for dt in (0.0, -0.5):
        with pytest.raises(ValueError):
            PhaseSchedule(dt=dt)


def test_mode_flag_consistency_errors():
    net = tiny_network()
    with pytest.raises(EngineError):
        run_sample(net, bright_image(), PhaseSchedule(), sample_rng(0, 0, 0),
                   mode=MODE_RSTDP_DECODER)  # no target/reward state
    with pytest.raises(EngineError):
        run_sample(net, bright_image(), PhaseSchedule(16, 0, 16), sample_rng(0, 0, 0),
                   mode=MODE_RSTDP_DECODER, target=0, reward_state=RewardState())
    with pytest.raises(EngineError):
        run_sample(net, bright_image(), PhaseSchedule(), sample_rng(0, 0, 0), mode="bogus")


def test_training_is_deterministic_bit_for_bit():
    ds = make_blob_dataset(6, 8, 2, seed=5)

    def one_run():
        net = tiny_network(seed=7)
        state = RewardState(mode="td")
        metrics = train_decoder(net, ds, 6, PhaseSchedule(16, 16, 16), state, seed=7)
        return _hash(net.dec_conn.weights, net.lc_g), list(metrics.rewards)

    h1, r1 = one_run()
    h2, r2 = one_run()
    assert h1 == h2
    assert r1 == r2


def test_layerwise_isolation_during_decoder_training():
    ds = make_blob_dataset(4, 8, 2, seed=6)
    net = tiny_network(seed=8)
    lc_hash = _hash(net.lc_conn.weights)
    train_decoder(net, ds, 4, PhaseSchedule(16, 16, 16), RewardState(), seed=8)
    assert _hash(net.lc_conn.weights) == lc_hash


def test_train_lc_zero_samples_is_identity():
    net = tiny_network()
    before = _hash(net.lc_conn.weights)
    norms = train_lc(net, make_blob_dataset(4, 8, 2, seed=1), 0, PhaseSchedule(), seed=0)
    assert norms == []
    assert _hash(net.lc_conn.weights) == before


def test_train_lc_closes_the_partial_last_window():
    ds = make_blob_dataset(4, 8, 2, seed=2)
    net = tiny_network(seed=3)
    w0 = net.lc_conn.weights.copy()
    norms = train_lc(net, ds, 3, PhaseSchedule(t_learn=32), seed=3, window=4)
    assert norms == [float(np.linalg.norm(net.lc_conn.weights - w0))]
    assert norms[0] > 0.0


def test_train_lc_keeps_normalized_bounded_weights():
    ds = make_blob_dataset(8, 8, 2, seed=2)
    net = tiny_network(seed=3)
    train_lc(net, ds, 8, PhaseSchedule(t_learn=32), seed=3, window=4)
    w = net.lc_conn.weights
    assert (w >= 0).all() and (w <= 1).all()
    means = w.reshape(net.n_lc, -1).mean(axis=1)
    assert np.abs(means - 0.25).max() < 1e-9


def test_adaptation_accumulates_across_training_samples():
    ds = make_blob_dataset(4, 8, 2, seed=9)
    net = tiny_network(seed=4)
    assert (net.lc_g == 0).all()
    train_lc(net, ds, 4, PhaseSchedule(t_learn=64), seed=4)
    assert net.lc_g.max() > 0.0


# --- evaluation --------------------------------------------------------------


def test_evaluate_requires_a_decision_period():
    with pytest.raises(EngineError):
        evaluate(tiny_network(), make_blob_dataset(2, 8, 2, seed=0), PhaseSchedule(16, 0, 16),
                 seed=0)


def test_evaluate_forced_correct_routing():
    net = tiny_network()
    net.dec_conn.weights[:, :2] = 1.0
    net.dec_conn.weights[:, 2:] = 0.0
    ds = make_blob_dataset(3, 8, 2, seed=1)
    ds.labels[:] = 0  # router always answers group 0
    acc, decisions = evaluate(net, ds, PhaseSchedule(16, 32, 16), seed=0)
    assert acc == 1.0
    assert (decisions == 0).all()


def test_evaluate_is_pure_and_repeatable():
    net = tiny_network(seed=11)
    ds = make_blob_dataset(5, 8, 2, seed=3)
    before = _hash(net.lc_conn.weights, net.dec_conn.weights, net.lc_g, net.dec_g)
    acc1, d1 = evaluate(net, ds, PhaseSchedule(16, 32, 0), seed=5)
    acc2, d2 = evaluate(net, ds, PhaseSchedule(16, 32, 0), seed=5)
    assert acc1 == acc2
    assert (d1 == d2).all()
    assert _hash(net.lc_conn.weights, net.dec_conn.weights, net.lc_g, net.dec_g) == before


def test_sample_rng_streams_are_distinct():
    seen = set()
    for stage in range(4):
        for index in range(64):
            seen.add(sample_rng(5, stage, index).integers(0, 2**63))
    assert len(seen) == 4 * 64


def test_evaluation_is_order_independent_per_sample():
    # every sample owns an index-addressable stream, so scoring a sample
    # alone equals scoring it inside the full pass (the parallel-safety
    # contract for frozen networks)
    net = tiny_network(seed=21)
    ds = make_blob_dataset(6, 8, 2, seed=13)
    _, full = evaluate(net, ds, PhaseSchedule(16, 32, 0), seed=9)
    for i in (3, 0, 5):
        res = run_sample(net, ds.images[i], PhaseSchedule(16, 32, 0), sample_rng(9, 3, i))
        assert res.decision == full[i]


def test_random_decoder_sits_at_chance_on_balanced_labels():
    rng = np.random.default_rng(0)
    net = build_network(h_in=8, w_in=8, ch_lc=2, k=4, s=4, n_out=10, n_c=10, seed=13)
    images = rng.integers(0, 256, size=(100, 8, 8)).astype(np.uint8)
    from lcsnn.data import Dataset

    ds = Dataset(images=images, labels=np.arange(100, dtype=np.int64) % 10, class_count=10)
    acc, _ = evaluate(net, ds, PhaseSchedule(16, 32, 0), seed=1)
    # labels are independent of the decisions: chance is 0.1, 4 sigma is 0.12
    assert acc <= 0.22


# --- winner-take-all ---------------------------------------------------------


def test_wta_sustains_single_winner_per_field():
    # one receptive field, three channels; channel 0's filter matches hardest
    lc = NeuronParams(adaptive=False)
    net = build_network(h_in=6, w_in=6, ch_lc=3, k=6, s=1, n_out=2, n_c=1, seed=0,
                        lc_params=lc, w_inh=-100.0)
    net.lc_conn.weights[0] = 0.9
    net.lc_conn.weights[1] = 0.85
    net.lc_conn.weights[2] = 0.85
    res = run_sample(net, bright_image(6), PhaseSchedule(100, 300, 0), sample_rng(0, 3, 2))
    counts = res.lc_activation
    assert counts[0] > 0
    assert counts[1] == 0 and counts[2] == 0


# --- brute-force trajectory oracle ------------------------------------------
#
# A three-neuron chain (one input pixel, one feature neuron, one decoder
# neuron) re-simulated with plain Python floats, straight from the
# documented dynamics: Euler leak + delta synapses, inclusive threshold on
# the updated potential against the entry threshold offset, reset +
# refractory, multiplicative threshold decay then spike increment; trace
# decay + impulse, eligibility from current-tick spikes, clipped modulated
# update during the learning period only; match/mismatch reward turned
# into a prediction-error modulation once, right after the decision period.


TOY_LC = NeuronParams(u_rest=-65.0, u_reset=-65.0, u_thr0=-62.5, tau_m=10.0,
                      delta_t_ref=2.0, g0=0.4, tau_g=50.0, adaptive=True)
TOY_DEC = NeuronParams(u_rest=-65.0, u_reset=-65.0, u_thr0=-64.2, tau_m=10.0,
                       delta_t_ref=2.0, g0=0.05, tau_g=1e6, adaptive=False)
# asymmetric rates and windows: with a 1:1 spike chain, symmetric traces
# cancel exactly (p_plus == -p_minus at coincident ticks) and nothing learns
TOY_PLAST = PlasticityParams(eta_pre=0.1, eta_post=0.22, tau_plus=12.0, tau_minus=19.0,
                             gamma=1.2, w_min=0.0, w_max=1.0)
TOY_ENC = EncoderParams(f_max=600.0, intensity_max=255.0)


def _scalar_neuron_step(u, g, ref, p: NeuronParams, drive, dt=1.0):
    active = ref == 0
    u = u + (dt / p.tau_m) * (p.u_rest - u)
    if active:
        u = u + drive
    spike = active and (u >= p.u_thr0 + g)
    if spike:
        u = p.u_reset
        ref = math.ceil(p.delta_t_ref / dt)
    elif not active:
        ref -= 1
    g = g * math.exp(-dt / p.tau_g)
    if p.adaptive and spike:
        g = g + p.g0
    return u, g, ref, spike


def _scalar_trajectory(seed, pixel, schedule, w_lc, w_dec0, target, eta_rpe, alpha):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, 0)))
    total = schedule.t_adapt + schedule.t_dec + schedule.t_learn
    prob = (pixel / TOY_ENC.intensity_max) * TOY_ENC.f_max / 1000.0
    x = rng.random((total, 1))[:, 0] < prob

    u_lc, g_lc, ref_lc = TOY_LC.u_rest, 0.0, 0
    u_dec, g_dec, ref_dec = TOY_DEC.u_rest, 0.0, 0
    p_plus = p_minus = 0.0
    w_dec = w_dec0
    ema = 0.0
    m = 0.0
    spikes = 0
    decision = None
    trajectory = []
    dec_end = schedule.t_adapt + schedule.t_dec
    for t in range(total):
        u_lc, g_lc, ref_lc, s_lc = _scalar_neuron_step(u_lc, g_lc, ref_lc, TOY_LC,
                                                       w_lc * (1.0 if x[t] else 0.0))
        u_dec, g_dec, ref_dec, s_dec = _scalar_neuron_step(u_dec, g_dec, ref_dec, TOY_DEC,
                                                           w_dec * (1.0 if s_lc else 0.0))
        if schedule.t_adapt <= t < dec_end:
            spikes += int(s_dec)
            if t == dec_end - 1:
                decision = 0  # single group: no tie, no rng draw
                r = 1 if decision == target else -1
                m = eta_rpe * (r - ema)
                ema = alpha * ema + (1 - alpha) * r
        p_plus = p_plus * math.exp(-1.0 / TOY_PLAST.tau_plus) + TOY_PLAST.eta_post * s_lc
        p_minus = p_minus * math.exp(-1.0 / TOY_PLAST.tau_minus) - TOY_PLAST.eta_pre * s_dec
        if t >= dec_end:
            xi = p_plus * (1.0 if s_dec else 0.0) + p_minus * (1.0 if s_lc else 0.0)
            w_dec = min(max(w_dec + TOY_PLAST.gamma * (m * xi), TOY_PLAST.w_min),
                        TOY_PLAST.w_max)
        trajectory.append(w_dec)
    return np.array(trajectory), spikes, m


def test_engine_matches_scalar_oracle_on_three_neuron_chain():
    seed = 123
    schedule = PhaseSchedule(10, 10, 30)
    net = build_network(
        h_in=1, w_in=1, ch_lc=1, k=1, s=1, n_out=1, n_c=1, seed=seed,
        encoder=TOY_ENC, lc_params=TOY_LC, dec_params=TOY_DEC,
        dec_plasticity=TOY_PLAST, w_inh=-100.0,
    )
    net.lc_conn.weights[:] = 0.99
    net.dec_conn.weights[:] = 0.85

    trajectory = []
    state = RewardState(mode="td", eta_rpe=0.3, alpha=0.7)
    res = run_sample(
        net, np.array([[230.0]]), schedule, sample_rng(seed, 2, 0),
        mode=MODE_RSTDP_DECODER, target=0, reward_state=state,
        on_step=lambda t, n: trajectory.append(float(n.dec_conn.weights[0, 0])),
    )
    expected, spikes, m = _scalar_trajectory(seed, 230.0, schedule, 0.99, 0.85, 0, 0.3, 0.7)

    assert spikes >= 1, "toy parameters must actually produce decoder spikes"
    assert expected[-1] != 0.85, "weights must actually move for the oracle to bite"
    assert res.group_counts[0] == spikes
    assert res.modulation == pytest.approx(m, abs=1e-15)
    assert np.abs(np.array(trajectory) - expected).max() <= 1e-12


def _scalar_lc_trajectory(seed, pixels, t_learn, w0, plast: PlasticityParams):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, 0)))
    probs = (np.asarray(pixels, float).reshape(-1) / TOY_ENC.intensity_max) * TOY_ENC.f_max / 1000.0
    x = rng.random((t_learn, 4)) < probs

    u, g, ref = TOY_LC.u_rest, 0.0, 0
    p_plus = [0.0] * 4
    p_minus = 0.0
    w = list(w0)
    trajectory = []
    for t in range(t_learn):
        drive = sum(wi * (1.0 if xi else 0.0) for wi, xi in zip(w, x[t]))
        u, g, ref, s = _scalar_neuron_step(u, g, ref, TOY_LC, drive)
        p_plus = [pp * math.exp(-1.0 / plast.tau_plus) + plast.eta_post * x[t][i]
                  for i, pp in enumerate(p_plus)]
        p_minus = p_minus * math.exp(-1.0 / plast.tau_minus) - plast.eta_pre * s
        xi = [p_plus[i] * (1.0 if s else 0.0) + p_minus * (1.0 if x[t][i] else 0.0)
              for i in range(4)]
        w = [min(max(wi + plast.gamma * xii, plast.w_min), plast.w_max)
             for wi, xii in zip(w, xi)]
        mean = sum(w) / 4.0
        if mean > 0.0:
            w = [wi * (plast.c_norm / mean) for wi in w]
        trajectory.append(list(w))
    return np.array(trajectory)


def test_lc_training_matches_scalar_oracle():
    seed = 321
    plast = PlasticityParams(eta_pre=0.002, eta_post=0.02, tau_plus=15.0, tau_minus=15.0,
                             gamma=1.0, c_norm=0.3)
    net = build_network(
        h_in=2, w_in=2, ch_lc=1, k=2, s=1, n_out=1, n_c=1, seed=seed,
        encoder=TOY_ENC, lc_params=TOY_LC, lc_plasticity=plast, w_inh=-100.0,
    )
    w0 = [0.6, 0.4, 0.5, 0.7]
    net.lc_conn.weights[0, 0, 0] = np.array(w0).reshape(2, 2)

    trajectory = []
    image = np.array([[250.0, 120.0], [200.0, 60.0]])
    run_sample(
        net, image, PhaseSchedule(0, 0, 50), sample_rng(seed, 1, 0), mode=MODE_STDP_LC,
        on_step=lambda t, n: trajectory.append(n.lc_conn.weights.reshape(4).copy()),
    )
    expected = _scalar_lc_trajectory(seed, image, 50, w0, plast)
    assert np.abs(expected[-1] - np.array(w0) * (plast.c_norm / np.mean(w0))).max() > 1e-6, \
        "filters must actually learn for the oracle to bite"
    assert np.abs(np.array(trajectory) - expected).max() <= 1e-12


def test_on_step_hook_sees_every_tick():
    net = tiny_network()
    seen = []
    run_sample(net, bright_image(), PhaseSchedule(4, 4, 4), sample_rng(0, 3, 3),
               on_step=lambda t, n: seen.append(t))
    assert seen == list(range(12))


@pytest.mark.slow
def test_lc_weight_changes_shrink_over_mnist_training(mnist_train):
    from lcsnn.data import center_crop, filter_classes

    ds = filter_classes(center_crop(mnist_train, 22), [0, 1], relabel=True)
    net = build_network(h_in=22, w_in=22, ch_lc=25, k=13, s=3, n_out=4, n_c=2, seed=0)
    norms = train_lc(net, ds, 300, PhaseSchedule(256, 256, 256), seed=0, window=100)
    assert len(norms) == 3
    assert norms[-1] < norms[0]  # filters converge: later windows move less


def test_always_correct_decoder_decays_td_modulation():
    # route everything to group 0 and reward it: the stream is all-correct,
    # so the prediction-error modulation shrinks toward zero
    net = tiny_network(seed=2)
    net.dec_conn.weights[:, :2] = 1.0
    net.dec_conn.weights[:, 2:] = 0.0
    ds = make_blob_dataset(6, 8, 2, seed=8)
    ds.labels[:] = 0
    state = RewardState(mode="td", eta_rpe=0.125, alpha=0.9)
    metrics = train_decoder(net, ds, 12, PhaseSchedule(16, 32, 8), state, seed=3)
    assert len(metrics) == 12  # one metrics row per sample
    assert all(r == 1.0 for r in metrics.rewards)
    mods = metrics.modulations
    assert mods[0] == pytest.approx(0.125)
    assert all(a >= b for a, b in zip(mods, mods[1:]))
    assert mods[-1] < 0.125 * 0.35
