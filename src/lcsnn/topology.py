"""Connection blocks: local (non-weight-shared) filters, dense decoding
weights, and static inhibitory wiring.

A local connection tiles the input with receptive fields of size ``k`` at
stride ``s`` and gives every (channel, field) pair its own filter; nothing
is shared between fields.  Weights are indexed
``(out_channel, rf_row, rf_col, k, k)``.  The flat ordering of the layer's
neurons is C order over ``(channel, rf_row, rf_col)``; everything
downstream (inhibition labels, dense connections, feature vectors) relies
on that ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LcShape:
    """Geometry of one local connection over a single-channel input; the
    output lattice is a k/s tiling with no padding (floor arithmetic)."""

    h_in: int
    w_in: int
    ch_out: int
    k: int
    s: int

    def __post_init__(self) -> None:
        if self.ch_out < 1:
            raise ValueError(f"ch_out must be at least 1, got {self.ch_out}")
        if self.s < 1:
            raise ValueError(f"stride must be at least 1, got {self.s}")
        if self.k > self.h_in or self.k > self.w_in:
            raise ValueError(f"kernel {self.k} exceeds input extent ({self.h_in}, {self.w_in})")

    @property
    def h_out(self) -> int:
        return (self.h_in - self.k) // self.s + 1

    @property
    def w_out(self) -> int:
        return (self.w_in - self.k) // self.s + 1

    @property
    def n_locations(self) -> int:
        return self.h_out * self.w_out

    @property
    def n_pre(self) -> int:
        return self.h_in * self.w_in

    @property
    def n_post(self) -> int:
        return self.ch_out * self.n_locations


def _pre_index(shape: LcShape) -> np.ndarray:
    """Flat input index of every synapse, shaped (h_out, w_out, k, k)."""
    idx = np.empty((shape.h_out, shape.w_out, shape.k, shape.k), dtype=np.int64)
    for r in range(shape.h_out):
        for c in range(shape.w_out):
            rows = np.arange(r * shape.s, r * shape.s + shape.k)
            cols = np.arange(c * shape.s, c * shape.s + shape.k)
            idx[r, c] = rows[:, None] * shape.w_in + cols[None, :]
    return idx


@dataclass
class LocalConnection:
    """One block of per-receptive-field filters."""

    shape: LcShape
    weights: np.ndarray  # (ch_out, h_out, w_out, k, k) float64
    pre_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        expected = (self.shape.ch_out, self.shape.h_out, self.shape.w_out, self.shape.k, self.shape.k)
        if self.weights.shape != expected:
            raise ValueError(f"weight shape {self.weights.shape} does not match {expected}")
        self.pre_index = _pre_index(self.shape)

    @property
    def n_pre(self) -> int:
        return self.shape.n_pre

    @property
    def n_post(self) -> int:
        return self.shape.n_post

    def gather(self, pre_values: np.ndarray) -> np.ndarray:
        """Arrange a flat presynaptic vector into per-field patches (h_out, w_out, k, k)."""
        return pre_values[self.pre_index]

    def forward(self, pre_spikes: np.ndarray) -> np.ndarray:
        """Synaptic drive of every output neuron for one tick, flat (n_post,)."""
        patches = np.asarray(pre_spikes, dtype=np.float64)[self.pre_index]
        return np.einsum("crsab,rsab->crs", self.weights, patches).reshape(-1)


def make_local_connection(shape: LcShape, rng: np.random.Generator) -> LocalConnection:
    """Local connection with weights initialized uniformly in [0, 1)."""
    w = rng.random((shape.ch_out, shape.h_out, shape.w_out, shape.k, shape.k))
    return LocalConnection(shape=shape, weights=w)


@dataclass
class DenseConnection:
    """All-to-all weights (n_pre, n_post)."""

    weights: np.ndarray

    @property
    def n_pre(self) -> int:
        return self.weights.shape[0]

    @property
    def n_post(self) -> int:
        return self.weights.shape[1]

    def forward(self, pre_spikes: np.ndarray) -> np.ndarray:
        return np.asarray(pre_spikes, dtype=np.float64) @ self.weights


def make_dense_connection(n_pre: int, n_post: int, rng: np.random.Generator) -> DenseConnection:
    return DenseConnection(weights=rng.random((n_pre, n_post)))


@dataclass
class InhibitionMask:
    """Static lateral inhibition within one layer.

    Every neuron carries a competition label; ``scope`` selects which
    ordered pairs are wired:

    - ``"within"``: all pairs sharing a label (cross-channel competition
      inside one receptive field);
    - ``"across"``: all pairs with different labels (group-versus-group
      competition in the decoder);
    - ``"all"``: every pair.

    Self-pairs are never wired and the pair set is symmetric by
    construction.  A presynaptic spike adds ``w_inh`` (negative,
    millivolts) to each wired postsynaptic neuron.
    """

    labels: np.ndarray
    scope: str
    w_inh: float

    def __post_init__(self) -> None:
        if self.scope not in ("within", "across", "all"):
            raise ValueError(f"unknown inhibition scope {self.scope!r}")
        if self.w_inh >= 0.0:
            raise ValueError(f"w_inh must be negative, got {self.w_inh}")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self._n_labels = int(self.labels.max()) + 1 if self.labels.size else 0

    def drive(self, spikes: np.ndarray) -> np.ndarray:
        """Inhibitory drive for one tick given the layer's previous spikes."""
        s = np.asarray(spikes, dtype=np.float64)
        per_label = np.bincount(self.labels, weights=s, minlength=self._n_labels)
        if self.scope == "within":
            peers = per_label[self.labels] - s
        elif self.scope == "across":
            peers = s.sum() - per_label[self.labels]
        else:
            peers = s.sum() - s
        return self.w_inh * peers


def build_lc_inhibition(shape: LcShape, w_inh: float) -> InhibitionMask:
    """Cross-channel competition among neurons sharing a receptive field."""
    labels = np.tile(np.arange(shape.n_locations, dtype=np.int64), shape.ch_out)
    return InhibitionMask(labels=labels, scope="within", w_inh=w_inh)


def build_decoder_inhibition(
    n_out: int, n_c: int, w_inh: float, within_group: bool = False
) -> InhibitionMask:
    """Group-versus-group competition in the decoding layer.

    By default neurons of the same group cooperate on the class vote and
    only different groups inhibit each other; ``within_group=True`` wires
    every pair instead.
    """
    if n_c < 1 or n_out % n_c != 0:
        raise ValueError(f"group count {n_c} must divide layer size {n_out}")
    labels = np.repeat(np.arange(n_c, dtype=np.int64), n_out // n_c)
    return InhibitionMask(labels=labels, scope="all" if within_group else "across", w_inh=w_inh)


def count_parameters(lc: LocalConnection, decoder: DenseConnection) -> tuple[int, int]:
    """Neuron and plastic-synapse totals: input + feature + decoder neurons,
    local-filter + dense synapses."""
    n_neurons = lc.shape.n_pre + lc.n_post + decoder.n_post
    n_synapses = lc.weights.size + decoder.weights.size
    return n_neurons, n_synapses
