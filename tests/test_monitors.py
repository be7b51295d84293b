import numpy as np
import pytest

from lcsnn.monitors import (
    RunMetrics,
    filter_grid_image,
    moving_average,
    weights_to_gray,
    write_pgm,
)
from lcsnn.topology import DenseConnection, LcShape, LocalConnection


def test_moving_average_warmup_and_window():
    x = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    got = moving_average(x, window=3)
    expected = [1.0, 0.5, 2 / 3, 2 / 3, 2 / 3, 1 / 3]
    assert np.allclose(got, expected)


def test_constant_correct_stream_has_unit_running_accuracy():
    metrics = RunMetrics(window=10)
    for _ in range(50):
        metrics.add(reward=1.0, modulation=0.1)
    assert (metrics.cumulative_accuracy() == 1.0).all()
    assert (metrics.reward_rate() == 1.0).all()
    assert (metrics.punishment_rate() == 0.0).all()


def test_reward_and_punishment_rates_are_complementary():
    rng = np.random.default_rng(0)
    metrics = RunMetrics(window=7)
    for _ in range(40):
        r = 1.0 if rng.random() < 0.5 else -1.0
        metrics.add(reward=r, modulation=0.0)
    total = metrics.reward_rate() + metrics.punishment_rate()
    assert np.allclose(total, 1.0)


def test_metrics_csv_schema(tmp_path):
    metrics = RunMetrics(window=2)
    metrics.add(1.0, 0.125)
    metrics.add(-1.0, -0.1)
    path = tmp_path / "metrics.csv"
    metrics.write_metrics_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_index,reward,modulation,running_accuracy,cumulative_accuracy"
    assert lines[1] == "0,1.000000,0.125000,1.000000,1.000000"
    assert lines[2] == "1,-1.000000,-0.100000,0.500000,0.500000"


def test_gray_mapping_is_linear_and_clipped():
    gray = weights_to_gray(np.array([0.0, 0.5, 1.0, 1.2, -0.1]))
    assert gray.tolist() == [0, 128, 255, 255, 0]
    assert gray.dtype == np.uint8


def test_filter_grid_layout():
    # 4 channels, 3x3 kernels, 2x2 receptive fields: 4 row groups of height 3
    # by 4 tiles of width 3, with a 1-px separator between neighbours
    shape = LcShape(h_in=5, w_in=5, ch_out=4, k=3, s=2)
    conn = LocalConnection(shape=shape, weights=np.random.default_rng(0).random(
        (4, 2, 2, 3, 3)))
    img = filter_grid_image(conn)
    assert img.shape == (4 * 3 + 3, 4 * 3 + 3)
    # tile (channel 2, field (1, 0)) sits at rows 8:11, cols 8:11
    expected = weights_to_gray(conn.weights[2, 1, 0])
    assert (img[8:11, 8:11] == expected).all()
    assert (img[3, :] == 255).all()  # separator lines
    assert (img[:, 3] == 255).all()


def test_dense_map_shape():
    # decoder weights map to an (n_pre, n_post) image, as the decoder map is written
    conn = DenseConnection(weights=np.random.default_rng(1).random((6, 4)))
    img = weights_to_gray(conn.weights, 0.0, 1.0)
    assert img.shape == (conn.n_pre, conn.n_post) == (6, 4)


def test_pgm_writer(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert raw[len(b"P5\n4 3\n255\n"):] == img.tobytes()
    with pytest.raises(ValueError):
        write_pgm(path, np.zeros((2, 2, 2), dtype=np.uint8))
