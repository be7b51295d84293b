"""Golden digests: one sha256 per simulation mode over a fixed tiny run.

The expected values were computed at commit
9ec21571f843526fb344af8e2cd01959c78975af with numpy 2.4.6.  Any change to
the per-tick operation order (drive = forward + inhibition, the ``r_mem``
gain, neuron step, traces, eligibility, update and clip, normalization)
or to the random streams moves them; a change that does so on purpose
re-baselines them and says so.
"""

import hashlib

import numpy as np

from lcsnn import readout
from lcsnn.engine import (
    MODE_NONE,
    PhaseSchedule,
    evaluate,
    run_sample,
    sample_rng,
    train_decoder,
    train_lc,
)
from lcsnn.reward import RewardState
from tests.conftest import make_blob_dataset
from tests.test_engine import tiny_network


GOLDEN = {
    "train_lc": "d5d51cf17c50049981227c39cfcd8f5dc32f6624d114d434acbbea8c57dd831f",
    "train_decoder_td": "a4065835603f055221688038404ae1206445c6de32703d6e1a757154246c6ec2",
    "evaluate": "c6281d7ffa426d9bf3c499546af91f7a8d460318ce334f4297b120dcada81cd5",
    "extract_feature_matrix": "067e745e91ceb83a2fe72dca89a64609a17b630e5b91d3f321f72f173cdc11ca",
    "run_sample_lc_activation": "95d3abd84855e60248c2027fb4b5e27d4e85f9b1ac2184b40b023d60744a32b9",
    "run_sample_half_tick": "b14f2dc535c46bc26b35903aa56f5bc2e1daa69f5fb884be7e16089d9ca75960",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _dataset():
    return make_blob_dataset(6, 8, 2, seed=4)


def test_golden_train_lc():
    net = tiny_network(seed=5)
    w0 = net.lc_conn.weights.copy()
    train_lc(net, _dataset(), 6, PhaseSchedule(16, 16, 48), seed=5, window=4)
    assert not np.array_equal(net.lc_conn.weights, w0)
    assert _digest(net.lc_conn.weights, net.lc_g) == GOLDEN["train_lc"]


def test_golden_train_decoder_td():
    net = tiny_network(seed=6)
    w0 = net.dec_conn.weights.copy()
    metrics = train_decoder(net, _dataset(), 6, PhaseSchedule(16, 16, 16),
                            RewardState(mode="td"), seed=6)
    assert not np.array_equal(net.dec_conn.weights, w0)
    assert _digest(
        net.dec_conn.weights, net.lc_g, net.dec_g,
        np.asarray(metrics.rewards, dtype=np.float64),
        np.asarray(metrics.modulations, dtype=np.float64),
    ) == GOLDEN["train_decoder_td"]


def test_golden_evaluate():
    _, decisions = evaluate(tiny_network(seed=7), _dataset(), PhaseSchedule(16, 32, 16), seed=7)
    assert _digest(decisions) == GOLDEN["evaluate"]


def test_golden_extract_feature_matrix():
    x, _ = readout.extract_feature_matrix(tiny_network(seed=7), _dataset(), 6,
                                          PhaseSchedule(16, 16, 32), seed=8)
    assert x.sum() > 0
    assert _digest(x) == GOLDEN["extract_feature_matrix"]


def test_golden_run_sample_lc_activation():
    res = run_sample(tiny_network(seed=7), _dataset().images[0], PhaseSchedule(16, 32, 16),
                     sample_rng(9, 3, 0), mode=MODE_NONE)
    assert res.lc_activation.sum() > 0
    assert _digest(res.lc_activation) == GOLDEN["run_sample_lc_activation"]


def test_golden_run_sample_half_tick():
    res = run_sample(tiny_network(seed=7), _dataset().images[0], PhaseSchedule(16, 32, 16, dt=0.5),
                     sample_rng(9, 3, 0), mode=MODE_NONE)
    assert _digest(res.lc_activation, res.group_counts) == GOLDEN["run_sample_half_tick"]
