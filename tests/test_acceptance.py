"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.

Criteria 1-6 and 12 are quick and always run.  Criteria 7 and 8 are the
desk-scale experiments (minutes; they need the real MNIST files and are
skipped when those are absent).  Criteria 9-11 are the full-scale
reproductions (hours) behind ``--run-longrun``.
"""

import math

import numpy as np
import pytest

from lcsnn.cli import main as cli_main
from lcsnn.data import (
    build_xor_mnist,
    center_crop,
    filter_classes,
    write_idx_images,
    write_idx_labels,
)
from lcsnn.encoding import EncoderParams, encode
from lcsnn.engine import (
    PhaseSchedule,
    build_network,
    evaluate,
    sample_rng,
    train_decoder,
    train_lc,
)
from lcsnn.plasticity import (
    PlasticityParams,
    apply_rstdp,
    apply_stdp,
    eligibility,
    lc_eligibility,
    make_traces,
    normalize_incoming,
    update_traces,
)
from lcsnn.readout import extract_feature_matrix, predict, train_linear
from lcsnn.reward import RewardState
from lcsnn.topology import LcShape, LocalConnection, count_parameters, make_dense_connection, make_local_connection
from tests.conftest import make_blob_dataset


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


SCHEDULE = PhaseSchedule(256, 256, 256)


def desk_network(seed: int, n_out: int, n_c: int, ch_lc: int = 25, k: int = 13, s: int = 3):
    """The desk-scale configuration used by criteria 7 and 8."""
    return build_network(h_in=22, w_in=22, ch_lc=ch_lc, k=k, s=s, n_out=n_out, n_c=n_c, seed=seed)


def layerwise(net, train, test, lc_samples: int, decoder_samples: int, seed: int,
              mode: str = "td") -> float:
    """Train the filters, then the decoder on them; return the test accuracy."""
    train_lc(net, train, lc_samples, SCHEDULE, seed=seed)
    train_decoder(net, train, decoder_samples, SCHEDULE,
                  RewardState(mode=mode, eta_rpe=0.125, alpha=0.9), seed=seed)
    return evaluate(net, test, SCHEDULE, seed=seed)[0]


@pytest.mark.acceptance
def test_criterion_01_parameter_counts():
    rng = np.random.default_rng(0)

    def counts(k, s, ch, n_out):
        sh = LcShape(h_in=22, w_in=22, ch_out=ch, k=k, s=s)
        return count_parameters(
            make_local_connection(sh, rng), make_dense_connection(sh.n_post, n_out, rng)
        )

    n1, s1 = counts(13, 3, 100, 100)
    n2, s2 = counts(15, 4, 100, 1000)
    n3, s3 = counts(15, 4, 100, 100)
    ok = (s1 == 430400) and (s2 == 490000) and (n3, s3) == (984, 130000) and n2 == 1884
    # the published row-1 neuron figure (1700) omits the 484 input neurons;
    # the include-input convention gives 2184 and is asserted here
    ok = ok and n1 == 2184
    _report(1, "parameter counts", ok,
            f"synapses {s1}/{s2}/{s3} neurons {n1}/{n2}/{n3}")


@pytest.mark.acceptance
def test_criterion_02_stdp_closed_form_pairs():
    params = PlasticityParams(eta_pre=0.0001, eta_post=0.01, tau_plus=20.0, tau_minus=20.0)

    def pair_delta(pre_t, post_t, steps):
        w = np.zeros((1, 1))
        tr = make_traces(1, 1)
        for t in range(steps):
            pre = np.array([t == pre_t])
            post = np.array([t == post_t])
            update_traces(tr, pre, post, params, dt=1.0)
            w = w + params.gamma * eligibility(tr, pre, post)  # no clipping: raw delta
        return w[0, 0]

    ltp = pair_delta(0, 5, 6)
    ltd = pair_delta(3, 0, 4)
    want_ltp = params.gamma * params.eta_post * math.exp(-5.0 / 20.0)
    want_ltd = -params.gamma * params.eta_pre * math.exp(-3.0 / 20.0)
    ok = abs(ltp - want_ltp) < 1e-9 and abs(ltd - want_ltd) < 1e-9
    _report(2, "closed-form STDP pairs", ok,
            f"ltp err {abs(ltp - want_ltp):.2e}, ltd err {abs(ltd - want_ltd):.2e}")


@pytest.mark.acceptance
def test_criterion_03_bruteforce_trajectory_oracle():
    from tests.test_engine import (
        test_engine_matches_scalar_oracle_on_three_neuron_chain,
        test_lc_training_matches_scalar_oracle,
    )

    test_engine_matches_scalar_oracle_on_three_neuron_chain()
    test_lc_training_matches_scalar_oracle()
    _report(3, "three-neuron trajectory oracle", True,
            "engine matches the independent scalar re-simulation to 1e-12")


@pytest.mark.acceptance
def test_criterion_04_rstdp_degenerates_to_stdp():
    params = PlasticityParams(eta_pre=0.03, eta_post=0.05, gamma=1.4)
    rng = np.random.default_rng(7)
    w_stdp = rng.random((6, 5))
    w_rstdp = w_stdp.copy()
    identical = True
    for _ in range(200):
        xi = rng.normal(scale=0.02, size=(6, 5))
        w_stdp = apply_stdp(w_stdp, xi, params)
        w_rstdp = apply_rstdp(w_rstdp, xi, 1.0, params)
        identical = identical and (w_stdp == w_rstdp).all()
    _report(4, "R-STDP degeneracy at M=1", bool(identical),
            "trajectories bit-identical over 200 random steps")


@pytest.mark.acceptance
def test_criterion_05_poisson_encoder_statistics():
    params = EncoderParams(f_max=128.0, intensity_max=255.0)
    rng = np.random.default_rng(2024)
    counts = [
        encode(np.array([255.0]), 1000, 1.0, rng, params).sum() for _ in range(200)
    ]
    mean = float(np.mean(counts))
    bound = 3.0 * math.sqrt(128.0 * (1.0 - 0.128) / 200.0)
    ok = abs(mean - 128.0) <= bound
    _report(5, "Poisson encoder statistics", ok,
            f"mean {mean:.3f} vs 128 +/- {bound:.3f}")


@pytest.mark.acceptance
def test_criterion_06_normalization_and_bounds():
    shape = LcShape(h_in=10, w_in=10, ch_out=4, k=5, s=5)
    params = PlasticityParams(eta_pre=0.05, eta_post=0.08, tau_plus=20.0, tau_minus=12.0,
                              c_norm=0.25)
    worst_mean_err = 0.0
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        conn = LocalConnection(shape=shape, weights=rng.random(
            (shape.ch_out, shape.h_out, shape.w_out, shape.k, shape.k)))
        traces = make_traces(shape.n_pre, shape.n_post)
        for _ in range(60):
            pre = rng.random(shape.n_pre) < rng.uniform(0.0, 0.6)
            post = rng.random(shape.n_post) < rng.uniform(0.0, 0.6)
            update_traces(traces, pre, post, params, dt=1.0)
            xi = lc_eligibility(conn, traces, pre, post)
            conn.weights = apply_stdp(conn.weights, xi, params)
            normalize_incoming(conn, params.c_norm, params.w_max)
            means = conn.weights.reshape(shape.n_post, -1).mean(axis=1)
            worst_mean_err = max(worst_mean_err, float(np.abs(means - 0.25).max()))
            ok = ok and (conn.weights >= 0.0).all() and (conn.weights <= 1.0).all()
    ok = ok and worst_mean_err < 1e-9
    _report(6, "normalization and bounds", ok,
            f"worst incoming-mean error {worst_mean_err:.2e}, weights within [0, 1]")


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_07_classical_conditioning(mnist_dir):
    from lcsnn.data import load_mnist_split

    stimuli = filter_classes(center_crop(load_mnist_split(mnist_dir, "train"), 22), [0])
    seeds = range(5)
    task1, task2 = [], []
    for seed in seeds:
        net = desk_network(seed, n_out=20, n_c=2)
        train_lc(net, stimuli, 300, SCHEDULE, seed=seed, window=300)
        state = RewardState(mode="td", eta_rpe=0.25, alpha=0.9)
        metrics = train_decoder(
            net, stimuli, 400, SCHEDULE, state, seed=seed,
            target_for=lambda i: 1 if i < 200 else 0,
        )
        hits = np.asarray(metrics.rewards) > 0
        task1.append(float(hits[149:200].mean()))
        task2.append(float(hits[349:400].mean()))
    m1, m2 = float(np.mean(task1)), float(np.mean(task2))
    ok = m1 >= 0.9 and m2 >= 0.9
    _report(7, "classical conditioning", ok,
            f"reward rate 150-200: {m1:.3f}, post-swap 350-400: {m2:.3f} over {len(task1)} seeds")


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_08_binary_classification_sanity(mnist_dir):
    from lcsnn.data import load_mnist_split

    train = filter_classes(center_crop(load_mnist_split(mnist_dir, "train"), 22), [0, 1],
                           relabel=True)
    test = filter_classes(center_crop(load_mnist_split(mnist_dir, "test"), 22), [0, 1],
                          relabel=True)
    chance = max(np.mean(test.labels == 0), np.mean(test.labels == 1))
    bound = float(chance + 2.326 * math.sqrt(chance * (1 - chance) / len(test)))

    accs = [layerwise(desk_network(seed, n_out=100, n_c=2), train, test, 600, 1000, seed)
            for seed in range(3)]
    mean = float(np.mean(accs))
    ok = all(a > bound for a in accs) and mean >= 0.80
    _report(8, "binary classification sanity", ok,
            f"accuracies {[round(a, 4) for a in accs]}, mean {mean:.4f}, chance bound {bound:.4f}")


@pytest.mark.acceptance
@pytest.mark.longrun
def test_criterion_09_full_mnist_reproduction(mnist_dir):
    from lcsnn.data import load_mnist_split

    train = center_crop(load_mnist_split(mnist_dir, "train"), 22)
    test = center_crop(load_mnist_split(mnist_dir, "test"), 22)

    def pipeline(seed: int, mode: str) -> float:
        net = desk_network(seed, n_out=1000, n_c=10, ch_lc=100, k=15, s=4)
        return layerwise(net, train, test, 2000, 10000, seed, mode)

    td = [pipeline(seed, "td") for seed in range(3)]
    static = [pipeline(seed, "static") for seed in range(3)]
    td_mean, static_mean = float(np.mean(td)), float(np.mean(static))
    ok = td_mean >= 0.70 and td_mean > static_mean
    _report(9, "full ten-class reproduction", ok,
            f"td {td} (mean {td_mean:.4f}) vs static {static} (mean {static_mean:.4f}); "
            "published: 76.40 +/- 2.43 vs 68.8")


@pytest.mark.acceptance
@pytest.mark.longrun
def test_criterion_10_linear_readout_baseline(mnist_dir):
    from lcsnn.data import load_mnist_split

    train = center_crop(load_mnist_split(mnist_dir, "train"), 22)
    test = center_crop(load_mnist_split(mnist_dir, "test"), 22)
    seed = 0
    net = desk_network(seed, n_out=1000, n_c=10, ch_lc=100, k=15, s=4)
    spiking_acc = layerwise(net, train, test, 2000, 10000, seed)

    x_train, y_train = extract_feature_matrix(net, train, 10000, SCHEDULE, seed)
    x_test, y_test = extract_feature_matrix(net, test, 10000, SCHEDULE, seed + 1)
    model = train_linear(x_train, y_train, l2=1e-4, epochs=10, seed=seed)
    svm_acc = float(np.mean(predict(model, x_test) == y_test))
    ok = svm_acc >= 0.82 and svm_acc > spiking_acc
    _report(10, "linear readout baseline", ok,
            f"linear {svm_acc:.4f} vs spiking {spiking_acc:.4f}; published 87.50 +/- 1.32")


@pytest.mark.acceptance
@pytest.mark.longrun
def test_criterion_11_xor_composition(mnist_dir):
    from lcsnn.data import load_mnist_split

    train_src = load_mnist_split(mnist_dir, "train")
    test_src = load_mnist_split(mnist_dir, "test")

    def pipeline(seed: int) -> float:
        train = build_xor_mnist(train_src, 10000, sample_rng(seed, 6, 0))
        test = build_xor_mnist(test_src, 10000, sample_rng(seed, 6, 1))
        net = build_network(h_in=40, w_in=40, ch_lc=1000, k=32, s=4, n_out=1000, n_c=2,
                            seed=seed)
        return layerwise(net, train, test, 2000, 10000, seed)

    accs = [pipeline(seed) for seed in range(3)]
    mean = float(np.mean(accs))
    ok = mean >= 0.75
    _report(11, "two-digit XOR composition", ok,
            f"accuracies {accs}, mean {mean:.4f}; published 84.35 +/- 1.27 "
            "(composition geometry is this package's own, see data module)")


@pytest.mark.acceptance
def test_criterion_12_determinism_suite(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    ds_train = make_blob_dataset(60, 28, 2, seed=4)
    write_idx_images(root / "train-images-idx3-ubyte", ds_train.images)
    write_idx_labels(root / "train-labels-idx1-ubyte", ds_train.labels)
    ds_test = make_blob_dataset(20, 28, 2, seed=5)
    write_idx_images(root / "t10k-images-idx3-ubyte", ds_test.images)
    write_idx_labels(root / "t10k-labels-idx1-ubyte", ds_test.labels)

    tiny = [
        "--set", "ch_lc=3", "--set", "k=11", "--set", "s=11", "--set", "n_out=4",
        "--set", "n_c=2", "--set", "classes=0,1", "--set", "t_adapt=32",
        "--set", "t_dec=32", "--set", "t_learn=32", "--set", "lc_samples=10",
        "--set", "decoder_samples=20", "--set", "u_thr0=-58",
    ]

    def full_run(out):
        assert cli_main(["train-lc", "--data-dir", str(root), "--out", str(out),
                         "--seed", "9", *tiny]) == 0
        lc_dir = next(d for d in out.iterdir() if d.name.startswith("train-lc"))
        assert cli_main(["train-decoder", "--data-dir", str(root), "--out", str(out),
                         "--seed", "9", "--lc-checkpoint", str(lc_dir / "network.blcn"),
                         *tiny]) == 0
        dec_dir = next(d for d in out.iterdir() if d.name.startswith("train-decoder"))
        return {
            "lc.blcn": (lc_dir / "network.blcn").read_bytes(),
            "lc_convergence.csv": (lc_dir / "lc_convergence.csv").read_bytes(),
            "network.blcn": (dec_dir / "network.blcn").read_bytes(),
            "metrics.csv": (dec_dir / "metrics.csv").read_bytes(),
            "rates.csv": (dec_dir / "rates.csv").read_bytes(),
        }

    a = full_run(tmp_path / "run_a")
    b = full_run(tmp_path / "run_b")
    same = {k: a[k] == b[k] for k in a}
    ok = all(same.values())
    _report(12, "determinism suite", ok,
            "byte-identical artifacts: " + ", ".join(f"{k}={v}" for k, v in same.items()))
