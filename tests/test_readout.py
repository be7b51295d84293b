import numpy as np
import pytest

from lcsnn.engine import EngineError, PhaseSchedule, build_network, sample_rng
from lcsnn.neurons import NeuronParams
from lcsnn.readout import (
    LinearModel,
    extract_features,
    load_model,
    predict,
    save_model,
    train_linear,
)


def feature_net(seed=0):
    return build_network(h_in=8, w_in=8, ch_lc=3, k=4, s=4, n_out=4, n_c=2, seed=seed,
                         lc_params=NeuronParams(u_thr0=-60.0, adaptive=True))


SCHEDULE = PhaseSchedule(16, 16, 64)


def test_zero_image_gives_zero_features():
    counts = extract_features(feature_net(), np.zeros((8, 8)), SCHEDULE, sample_rng(0, 4, 0))
    assert counts.shape == (12,)
    assert (counts == 0).all()


def test_image_must_match_the_network_input():
    for side in (7, 9):
        with pytest.raises(EngineError, match="pixels"):
            extract_features(feature_net(), np.zeros((side, side)), SCHEDULE, sample_rng(0, 4, 0))


def test_features_deterministic_and_bounded():
    net = feature_net()
    img = np.full((8, 8), 255.0)
    a = extract_features(net, img, SCHEDULE, sample_rng(1, 4, 0))
    b = extract_features(net, img, SCHEDULE, sample_rng(1, 4, 0))
    assert (a == b).all()
    assert a.sum() > 0
    assert (a <= SCHEDULE.t_learn).all()


def test_features_ignore_decoder_weights():
    net = feature_net()
    img = np.full((8, 8), 200.0)
    a = extract_features(net, img, SCHEDULE, sample_rng(2, 4, 0))
    net.dec_conn.weights[:] = 0.0
    b = extract_features(net, img, SCHEDULE, sample_rng(2, 4, 0))
    assert (a == b).all()


def _blobs(n=200, seed=0, separation=8.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([
        rng.normal(loc=(0.0, 0.0), scale=1.0, size=(half, 2)),
        rng.normal(loc=(separation, separation), scale=1.0, size=(n - half, 2)),
    ])
    y = np.concatenate([np.zeros(half, np.int64), np.ones(n - half, np.int64)])
    return x, y


def test_separable_blobs_reach_perfect_training_accuracy():
    x, y = _blobs()
    model = train_linear(x, y, l2=1e-4, epochs=10, seed=0)
    assert float(np.mean(predict(model, x) == y)) == 1.0


def test_random_labels_cannot_be_learned():
    # isotropic cloud, labels independent of position: training accuracy on
    # those labels is chance plus a small overfit margin
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 2))
    labels = rng.integers(0, 2, size=200).astype(np.int64)
    model = train_linear(x, labels, l2=1e-4, epochs=5, seed=0)
    acc = float(np.mean(predict(model, x) == labels))
    assert 0.35 < acc < 0.72


def test_duplicated_data_learns_the_same_decision_function():
    # duplicating every point leaves the mean objective unchanged, so the
    # minimizer is identical; check direction and off-margin behavior
    x, y = _blobs(seed=3)
    m1 = train_linear(x, y, l2=1e-3, epochs=8, seed=5)
    m2 = train_linear(np.vstack([x, x]), np.concatenate([y, y]), l2=1e-3, epochs=8, seed=5)
    w1, w2 = m1.weights[1], m2.weights[1]
    cosine = float(w1 @ w2 / (np.linalg.norm(w1) * np.linalg.norm(w2)))
    assert cosine >= 0.995
    rng = np.random.default_rng(4)
    probe = np.vstack([
        rng.normal(loc=(0.0, 0.0), scale=1.5, size=(250, 2)),
        rng.normal(loc=(8.0, 8.0), scale=1.5, size=(250, 2)),
    ])
    agreement = float(np.mean(predict(m1, probe) == predict(m2, probe)))
    assert agreement >= 0.99


def test_predict_tie_breaking_and_shapes():
    model = LinearModel(weights=np.zeros((3, 2)), biases=np.zeros(3),
                        mean=np.zeros(2), scale=np.ones(2), l2=0.0, epochs=0, seed=0)
    assert predict(model, np.zeros(2)) == 0  # all scores tie: lowest class wins
    model.biases = np.array([0.2, 0.9, 0.1])
    assert predict(model, np.zeros(2)) == 1
    eye = LinearModel(weights=np.eye(3), biases=np.zeros(3),
                      mean=np.zeros(3), scale=np.ones(3), l2=0.0, epochs=0, seed=0)
    assert predict(eye, np.eye(3)).tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        predict(eye, np.zeros(5))


def test_single_class_data_rejected():
    with pytest.raises(ValueError):
        train_linear(np.zeros((10, 2)), np.zeros(10, np.int64))


def test_constant_feature_dimensions_are_ignored():
    x, y = _blobs(seed=6)
    x_aug = np.hstack([x, np.full((x.shape[0], 1), 7.0)])  # constant column
    model = train_linear(x_aug, y, epochs=5, seed=0)
    assert model.scale[2] == 0.0
    assert float(np.mean(predict(model, x_aug) == y)) == 1.0


def test_model_round_trip(tmp_path):
    x, y = _blobs(seed=7)
    model = train_linear(x, y, epochs=3, seed=1)
    path = tmp_path / "model.blcn"
    save_model(model, path)
    back = load_model(path)
    assert (back.weights == model.weights).all()
    assert (back.biases == model.biases).all()
    assert (back.mean == model.mean).all()
    assert (back.scale == model.scale).all()
    assert (back.l2, back.epochs, back.seed) == (model.l2, model.epochs, model.seed)
