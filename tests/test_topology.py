from typing import Iterator

import numpy as np
import pytest

from lcsnn.config import ConfigError
from lcsnn.topology import (
    DenseConnection,
    InhibitionMask,
    LcShape,
    LocalConnection,
    build_decoder_inhibition,
    build_lc_inhibition,
    count_parameters,
    make_dense_connection,
    make_local_connection,
)


def pairs(mask: InhibitionMask) -> Iterator[tuple[int, int]]:
    """Brute-force enumeration of a mask's wired ordered (pre, post) pairs."""
    labels = mask.labels.tolist()
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            if i != j and (mask.scope == "all" or (a == b) == (mask.scope == "within")):
                yield (i, j)


def pair_count(mask: InhibitionMask) -> int:
    return sum(1 for _ in pairs(mask))


def test_output_shape_arithmetic():
    for h_in, k, s, side in ((22, 15, 4, 2), (22, 13, 3, 4), (9, 9, 3, 1)):
        sh = LcShape(h_in=h_in, w_in=h_in, ch_out=1, k=k, s=s)
        assert (sh.h_out, sh.w_out) == (side, side)
    with pytest.raises(ValueError):
        LcShape(h_in=10, w_in=10, ch_out=1, k=11, s=1)
    with pytest.raises(ValueError):
        LcShape(h_in=10, w_in=10, ch_out=1, k=3, s=0)


def test_shape_accounting():
    sh = LcShape(h_in=22, w_in=22, ch_out=100, k=15, s=4)
    assert (sh.h_out, sh.w_out) == (2, 2)
    assert sh.n_pre == 484
    assert sh.n_post == 400
    with pytest.raises(ValueError):
        LcShape(h_in=22, w_in=22, ch_out=0, k=15, s=4)


@pytest.mark.parametrize("k", [0, -2])
def test_kernel_must_cover_a_pixel(k):
    with pytest.raises(ConfigError) as err:
        LcShape(h_in=22, w_in=22, ch_out=2, k=k, s=4)
    assert err.value.key == "k"


def test_weight_count_matches_shape():
    sh = LcShape(h_in=22, w_in=22, ch_out=7, k=13, s=3)
    conn = make_local_connection(sh, np.random.default_rng(0))
    assert conn.weights.size == 7 * 4 * 4 * 13 * 13
    with pytest.raises(ValueError):
        LocalConnection(shape=sh, weights=np.zeros((7, 4, 4, 13, 12)))


def test_forward_equals_bruteforce_loop():
    sh = LcShape(h_in=6, w_in=6, ch_out=3, k=3, s=2)
    rng = np.random.default_rng(1)
    conn = make_local_connection(sh, rng)
    pre = rng.random(36) < 0.4
    got = conn.forward(pre).reshape(sh.ch_out, sh.h_out, sh.w_out)
    img = pre.reshape(6, 6).astype(float)
    for c in range(sh.ch_out):
        for r in range(sh.h_out):
            for q in range(sh.w_out):
                patch = img[r * 2 : r * 2 + 3, q * 2 : q * 2 + 3]
                assert got[c, r, q] == pytest.approx(
                    float((conn.weights[c, r, q] * patch).sum()), abs=1e-12
                )


def test_receptive_fields_are_independent():
    sh = LcShape(h_in=6, w_in=6, ch_out=2, k=3, s=3)
    rng = np.random.default_rng(2)
    conn = make_local_connection(sh, rng)
    pre = rng.random(36) < 0.5
    before = conn.forward(pre).reshape(2, 2, 2).copy()
    conn.weights[0, 0, 0] += 0.123  # touch exactly one field's filter
    after = conn.forward(pre).reshape(2, 2, 2)
    changed = before != after
    assert not changed[1].any()
    assert not changed[0, 0, 1] and not changed[0, 1, 0] and not changed[0, 1, 1]


def test_lc_inhibition_pair_counts():
    one_loc = build_lc_inhibition(LcShape(h_in=3, w_in=3, ch_out=2, k=3, s=1), -100.0)
    assert pair_count(one_loc) == 2
    assert set(pairs(one_loc)) == {(0, 1), (1, 0)}

    big = build_lc_inhibition(LcShape(h_in=22, w_in=22, ch_out=100, k=15, s=4), -100.0)
    assert pair_count(big) == 4 * 100 * 99

    solo = build_lc_inhibition(LcShape(h_in=3, w_in=3, ch_out=1, k=3, s=1), -100.0)
    assert pair_count(solo) == 0
    assert list(pairs(solo)) == []


def test_lc_inhibition_never_crosses_fields():
    sh = LcShape(h_in=4, w_in=4, ch_out=2, k=2, s=2)  # 4 locations, 8 neurons
    mask = build_lc_inhibition(sh, -50.0)
    loc = lambda i: mask.labels[i]
    for i, j in pairs(mask):
        assert i != j
        assert loc(i) == loc(j)


def test_decoder_inhibition_pairs_and_counts():
    mask = build_decoder_inhibition(4, 2, -100.0)
    assert set(pairs(mask)) == {(0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (3, 0), (2, 1), (3, 1)}
    assert pair_count(mask) == 8
    assert pair_count(build_decoder_inhibition(4, 1, -100.0)) == 0
    assert pair_count(build_decoder_inhibition(20, 2, -100.0)) == 200
    with pytest.raises(ValueError):
        build_decoder_inhibition(10, 3, -100.0)
    within = build_decoder_inhibition(4, 2, -100.0, within_group=True)
    assert pair_count(within) == 12  # everything but self


def test_inhibition_drive_within_scope():
    mask = InhibitionMask(labels=np.array([0, 0, 1, 1]), scope="within", w_inh=-10.0)
    drive = mask.drive(np.array([True, False, True, True]))
    # peers that spiked: n0 sees n1 (silent), n1 sees n0, n2 sees n3, n3 sees n2
    assert drive.tolist() == [0.0, -10.0, -10.0, -10.0]


def test_inhibition_drive_across_scope():
    mask = InhibitionMask(labels=np.array([0, 0, 1, 1]), scope="across", w_inh=-10.0)
    drive = mask.drive(np.array([True, False, True, True]))
    # n0/n1 see the two spikes in group 1; n2/n3 see the one spike in group 0
    assert drive.tolist() == [-20.0, -20.0, -10.0, -10.0]


@pytest.mark.parametrize("scope", ["within", "across", "all"])
def test_inhibition_drive_matches_pair_enumeration(scope):
    rng = np.random.default_rng(3)
    mask = InhibitionMask(labels=rng.integers(0, 4, size=12), scope=scope, w_inh=-7.0)
    spikes = rng.random(12) < 0.5
    expected = np.zeros(12)
    for i, j in pairs(mask):
        expected[j] += mask.w_inh * spikes[i]
    assert np.array_equal(mask.drive(spikes), expected)


def test_inhibition_rejects_bad_args():
    with pytest.raises(ValueError):
        InhibitionMask(labels=np.array([0, 1]), scope="within", w_inh=1.0)
    with pytest.raises(ValueError):
        InhibitionMask(labels=np.array([0, 1]), scope="sideways", w_inh=-1.0)


def _counts(k, s, ch, n_out):
    sh = LcShape(h_in=22, w_in=22, ch_out=ch, k=k, s=s)
    rng = np.random.default_rng(0)
    return count_parameters(
        make_local_connection(sh, rng), make_dense_connection(sh.n_post, n_out, rng)
    )


def test_parameter_count_oracles():
    assert _counts(15, 4, 100, 1000) == (484 + 400 + 1000, 490000)
    assert _counts(13, 3, 100, 100) == (484 + 1600 + 100, 430400)
    assert _counts(15, 4, 100, 100) == (984, 130000)


def test_dense_forward():
    conn = DenseConnection(weights=np.array([[1.0, 0.0], [0.5, 2.0]]))
    drive = conn.forward(np.array([True, True]))
    assert drive.tolist() == [1.5, 2.0]
