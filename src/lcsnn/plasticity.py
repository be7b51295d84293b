"""Spike traces and the trace-based plasticity rules.

Two exponential traces drive all weight updates:

- ``p_plus`` lives on presynaptic neurons, is bumped by ``eta_post`` on
  each presynaptic spike, and is harvested when the postsynaptic neuron
  fires (potentiation of causal pairs);
- ``p_minus`` lives on postsynaptic neurons, is bumped by ``-eta_pre`` on
  each postsynaptic spike, and is harvested when the presynaptic neuron
  fires (depression of acausal pairs).

The eligibility of synapse (i, j) at one tick is

    xi[i, j] = p_plus[i] * post_spike[j] + p_minus[j] * pre_spike[i]

with traces already updated for the current tick, so a same-tick pre/post
coincidence contributes both terms at full amplitude.  A plain update adds
``gamma * xi``; a reward-modulated update adds ``gamma * m * xi`` for a
scalar modulation ``m``.  Weights are clipped to ``[w_min, w_max]`` after
every update.

Per-tick order inside a simulation step: propagate spikes, update traces,
compute eligibility from current-tick spikes, apply the weight update,
then (feature layer only, while it is training) renormalize incoming
weights to the target mean ``c_norm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .topology import LocalConnection


@dataclass(frozen=True)
class PlasticityParams:
    eta_pre: float
    eta_post: float
    tau_plus: float = 20.0
    tau_minus: float = 20.0
    gamma: float = 1.0
    w_min: float = 0.0
    w_max: float = 1.0
    c_norm: float | None = None

    def __post_init__(self) -> None:
        if self.eta_pre < 0.0 or self.eta_post < 0.0:
            raise ConfigError("eta_pre" if self.eta_pre < 0.0 else "eta_post",
                              "learning rates must be non-negative")
        if self.tau_plus <= 0.0 or self.tau_minus <= 0.0:
            raise ConfigError("tau_plus" if self.tau_plus <= 0.0 else "tau_minus",
                              "trace time constants must be positive")
        if self.gamma < 0.0:
            raise ConfigError("gamma", f"must be non-negative, got {self.gamma}")
        if self.w_min >= self.w_max:
            raise ConfigError("w_min", f"{self.w_min} must be below w_max ({self.w_max})")
        if self.c_norm is not None and not (self.w_min < self.c_norm < self.w_max):
            raise ConfigError("c_norm", f"must lie inside ({self.w_min}, {self.w_max})")


@dataclass
class TraceState:
    p_plus: np.ndarray   # (n_pre,), non-negative
    p_minus: np.ndarray  # (n_post,), non-positive


def make_traces(n_pre: int, n_post: int) -> TraceState:
    return TraceState(
        p_plus=np.zeros(n_pre, dtype=np.float64),
        p_minus=np.zeros(n_post, dtype=np.float64),
    )


def update_traces(
    traces: TraceState,
    pre_spikes: np.ndarray,
    post_spikes: np.ndarray,
    params: PlasticityParams,
    dt: float,
) -> TraceState:
    """Decay both traces by one tick and add the current tick's spikes, in place."""
    if pre_spikes.shape != traces.p_plus.shape:
        raise ValueError(
            f"pre_spikes shape {pre_spikes.shape} does not match trace shape {traces.p_plus.shape}"
        )
    if post_spikes.shape != traces.p_minus.shape:
        raise ValueError(
            f"post_spikes shape {post_spikes.shape} does not match trace shape {traces.p_minus.shape}"
        )
    traces.p_plus *= math.exp(-dt / params.tau_plus)
    traces.p_plus += params.eta_post * np.asarray(pre_spikes, dtype=np.float64)
    traces.p_minus *= math.exp(-dt / params.tau_minus)
    traces.p_minus -= params.eta_pre * np.asarray(post_spikes, dtype=np.float64)
    return traces


def eligibility(
    traces: TraceState, pre_spikes: np.ndarray, post_spikes: np.ndarray
) -> np.ndarray:
    """Dense eligibility matrix (n_pre, n_post) for the current tick."""
    pre = np.asarray(pre_spikes, dtype=np.float64)
    post = np.asarray(post_spikes, dtype=np.float64)
    return np.outer(traces.p_plus, post) + np.outer(pre, traces.p_minus)


def lc_eligibility(
    conn: LocalConnection,
    traces: TraceState,
    pre_spikes: np.ndarray,
    post_spikes: np.ndarray,
) -> np.ndarray:
    """Eligibility restricted to the synapses a local connection actually has.

    Returns an array shaped like ``conn.weights``.  ``post_spikes`` is the
    flat (n_post,) spike vector of the feature layer.
    """
    shape = conn.shape
    post = np.asarray(post_spikes, dtype=np.float64).reshape(
        shape.ch_out, shape.h_out, shape.w_out
    )
    p_minus = traces.p_minus.reshape(shape.ch_out, shape.h_out, shape.w_out)
    plus_patches = conn.gather(traces.p_plus)                       # (h, w, k, k)
    pre_patches = conn.gather(np.asarray(pre_spikes, dtype=np.float64))
    return (
        plus_patches[None, :, :, :, :] * post[:, :, :, None, None]
        + p_minus[:, :, :, None, None] * pre_patches[None, :, :, :, :]
    )


def apply_stdp(weights: np.ndarray, xi: np.ndarray, params: PlasticityParams) -> np.ndarray:
    """Unmodulated update: w <- clip(w + gamma * xi)."""
    return np.clip(weights + params.gamma * xi, params.w_min, params.w_max)


def apply_rstdp(
    weights: np.ndarray, xi: np.ndarray, m: float, params: PlasticityParams
) -> np.ndarray:
    """Reward-modulated update: w <- clip(w + gamma * m * xi).

    With ``m == 1`` this is bit-identical to :func:`apply_stdp`.
    """
    return np.clip(weights + params.gamma * (m * xi), params.w_min, params.w_max)


def _refit_row(row: np.ndarray, target_sum: float, w_max: float) -> None:
    """Scale ``row`` to ``target_sum`` without exceeding ``w_max`` anywhere.

    Entries that would overshoot are pinned at ``w_max`` and the remainder
    is rescaled proportionally; if the remainder is all zeros (no
    proportions to preserve) it absorbs the residue in equal shares.
    Terminates because each pass pins at least one more entry.
    """
    pinned = np.zeros(row.shape, dtype=bool)
    for _ in range(row.size):
        free = ~pinned
        n_free = int(free.sum())
        if n_free == 0:
            return
        need = target_sum - w_max * int(pinned.sum())
        free_sum = row[free].sum()
        if free_sum <= 0.0:
            row[free] = need / n_free  # feasible: need <= n_free * w_max
            return
        row[free] *= need / free_sum
        over = free & (row > w_max)
        if not over.any():
            return
        row[over] = w_max
        pinned |= over


def normalize_incoming(conn: LocalConnection, c_norm: float, w_max: float = 1.0) -> int:
    """Rescale each feature neuron's incoming weights to mean ``c_norm``.

    Scaling is multiplicative per neuron, preserving relative proportions.
    Neurons whose incoming weights sum to zero are left untouched
    (rescaling is undefined); their count is returned for diagnostics.
    In the rare case where scaling up would push a weight past ``w_max``,
    the overshooting weights are pinned at the bound and the rest are
    rescaled so the mean still lands on ``c_norm`` exactly.
    """
    kk = conn.shape.k * conn.shape.k
    if not conn.weights.flags.c_contiguous:
        conn.weights = np.ascontiguousarray(conn.weights)
    flat = conn.weights.reshape(conn.n_post, kk)  # view: scaling writes through
    means = flat.mean(axis=1)
    zero = means <= 0.0
    scale = np.divide(c_norm, means, out=np.ones_like(means), where=~zero)
    flat *= scale[:, None]
    over_rows = np.flatnonzero((flat > w_max).any(axis=1))
    for r in over_rows:
        _refit_row(flat[r], c_norm * kk, w_max)
    return int(zero.sum())
