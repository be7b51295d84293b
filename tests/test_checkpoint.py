import hashlib
import struct

import numpy as np
import pytest

from lcsnn.checkpoint import (
    MAGIC,
    CheckpointError,
    load_arrays,
    save_arrays,
)
from lcsnn.engine import (
    build_network,
    checkpoint_load,
    checkpoint_save,
    network_to_arrays,
)


def test_array_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "vec": rng.random(7),
        "mat": rng.random((3, 5)),
        "filters": rng.random((2, 2, 2, 3, 3)),
    }
    path = tmp_path / "arrays.blcn"
    save_arrays(path, arrays)
    loaded = load_arrays(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.float64
        assert (loaded[name] == arrays[name]).all()


def test_bad_magic(tmp_path):
    path = tmp_path / "x.blcn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_arrays(path)


def test_future_version(tmp_path):
    path = tmp_path / "x.blcn"
    path.write_bytes(MAGIC + struct.pack("<II", 99, 0))
    with pytest.raises(CheckpointError, match="newer than supported"):
        load_arrays(path)


def test_truncated(tmp_path):
    path = tmp_path / "x.blcn"
    save_arrays(path, {"a": np.arange(10.0)})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="ends before the data of 'a'"):
        load_arrays(path)


@pytest.mark.parametrize("dims", [(2**20, 2**20), (2**32 - 1, 2**32 - 1), (2**32 - 1,) * 3])
def test_header_claiming_more_data_than_the_file_holds(tmp_path, dims):
    # the claim is checked against the file before anything is allocated
    path = tmp_path / "x.blcn"
    path.write_bytes(MAGIC + struct.pack(f"<III1sI{len(dims)}I", 1, 1, 1, b"a", len(dims), *dims))
    with pytest.raises(CheckpointError, match="ends before the data of 'a'"):
        load_arrays(path)
    path.write_bytes(MAGIC + struct.pack("<III", 1, 1, 2**32 - 1))  # a 4 GiB name
    with pytest.raises(CheckpointError, match="ends before the name of entry 0"):
        load_arrays(path)


def _load(tmp_path, arrays):
    path = tmp_path / "arrays.blcn"
    save_arrays(path, arrays)
    return checkpoint_load(path)


def _toy_network(seed=0):
    return build_network(h_in=8, w_in=8, ch_lc=3, k=4, s=4, n_out=4, n_c=2, seed=seed)


def test_network_round_trip_bit_identical(tmp_path):
    net = _toy_network()
    net.lc_g[:] = np.linspace(0, 1, net.n_lc)
    net.lc_trained = True
    path = tmp_path / "net.blcn"
    checkpoint_save(net, path)
    back = checkpoint_load(path)
    assert (back.lc_conn.weights == net.lc_conn.weights).all()
    assert (back.dec_conn.weights == net.dec_conn.weights).all()
    assert (back.lc_g == net.lc_g).all()
    assert (back.dec_g == net.dec_g).all()
    assert back.lc_trained
    assert back.lc_params == net.lc_params
    assert back.dec_params == net.dec_params
    assert back.lc_plasticity == net.lc_plasticity
    assert back.dec_plasticity == net.dec_plasticity
    assert back.encoder == net.encoder
    assert back.n_c == net.n_c
    assert back.lc_inhib.w_inh == net.lc_inhib.w_inh
    assert back.dec_inhib.scope == net.dec_inhib.scope
    # a second save of the loaded network reproduces the file byte for byte
    path2 = tmp_path / "net2.blcn"
    checkpoint_save(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_file_bytes_are_pinned(tmp_path):
    # any change to these bytes is a change of the checkpoint format
    net = _toy_network()
    net.lc_g[:] = np.linspace(0, 1, net.n_lc)
    net.lc_trained = True
    path = tmp_path / "net.blcn"
    checkpoint_save(net, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ba24bdd6afbd623342eec08435a65f2b4fa01d7adab4f82fd444eb5d11f71a55"
    )


def test_build_network_defaults_are_the_config_defaults():
    # perfbench builds its networks from these defaults, the CLI from the config
    from lcsnn.cli import network_from_config
    from lcsnn.config import resolve_config

    cfg = resolve_config(None, ["ch_lc=25", "k=13", "s=3", "n_out=100", "n_c=2", "seed=1"])
    want = network_to_arrays(network_from_config(cfg))
    got = network_to_arrays(
        build_network(h_in=22, w_in=22, ch_lc=25, k=13, s=3, n_out=100, n_c=2, seed=1)
    )
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name], equal_nan=True), name


def test_checkpoint_carries_everything_training_continuation_needs(tmp_path):
    from lcsnn.engine import PhaseSchedule, train_decoder, train_lc
    from lcsnn.neurons import NeuronParams
    from lcsnn.reward import RewardState
    from tests.conftest import make_blob_dataset

    ds = make_blob_dataset(6, 8, 2, seed=1)
    net = build_network(h_in=8, w_in=8, ch_lc=3, k=4, s=4, n_out=4, n_c=2, seed=5,
                        lc_params=NeuronParams(u_thr0=-60.0, adaptive=True),
                        dec_params=NeuronParams(u_thr0=-62.0, adaptive=False))
    train_lc(net, ds, 4, PhaseSchedule(t_learn=32), seed=5)
    path = tmp_path / "handoff.blcn"
    checkpoint_save(net, path)
    reloaded = checkpoint_load(path)

    sched = PhaseSchedule(16, 16, 16)
    train_decoder(net, ds, 5, sched, RewardState(mode="td"), seed=6)
    train_decoder(reloaded, ds, 5, sched, RewardState(mode="td"), seed=6)
    # adaptation state rides in the checkpoint, so the two continuations agree
    assert (net.dec_conn.weights == reloaded.dec_conn.weights).all()
    assert (net.lc_g == reloaded.lc_g).all()


def test_five_slot_layout_of_earlier_files_loads(tmp_path):
    # earlier files end the layout with (filters untrained, decoder untrained)
    arrays = network_to_arrays(_toy_network())
    for lc_untrained, trained in ((0.0, True), (1.0, False)):
        arrays["layout"] = np.append(arrays["layout"][:3], [lc_untrained, 1.0])
        assert _load(tmp_path, arrays).lc_trained is trained


def test_missing_array_raises(tmp_path):
    with pytest.raises(CheckpointError):
        _load(tmp_path, {"lc_shape": np.array([8, 8, 3, 4, 4.0])})


def test_inconsistent_shape_raises(tmp_path):
    net = _toy_network()
    arrays = network_to_arrays(net)
    arrays["lc_weights"] = arrays["lc_weights"][:, :, :, :2, :2].copy()
    with pytest.raises(CheckpointError):
        _load(tmp_path, arrays)
    arrays = network_to_arrays(net)
    arrays["lc_neurons"] = arrays["lc_neurons"][:-1]
    with pytest.raises(CheckpointError, match="NeuronParams"):
        _load(tmp_path, arrays)
    arrays = network_to_arrays(net)
    arrays["lc_neurons"][3] = -1.0  # tau_m, which NeuronParams rejects
    with pytest.raises(CheckpointError, match="tau_m"):
        _load(tmp_path, arrays)
