"""Adaptive leaky integrate-and-fire neurons on a fixed discrete clock.

A neuron group is a pair of plain values: immutable :class:`NeuronParams`
shared by every neuron in the group, and a mutable :class:`NeuronState`
holding one entry per neuron.  :func:`step` advances the state by one
clock tick of length ``dt`` milliseconds.

Update order within one tick (this order is the contract that trajectory
oracles replicate):

1. the membrane relaxes toward rest by the forward-Euler factor
   ``dt / tau_m``; non-refractory neurons additionally receive
   ``input_increment`` (delta-current synapses: millivolts, added as is);
2. a non-refractory neuron spikes iff its updated potential is at or
   above ``u_thr0 + g`` (inclusive, evaluated against ``g`` at tick entry);
3. spiking neurons are reset to ``u_reset`` and enter the refractory
   period for ``ceil(delta_t_ref / dt)`` ticks; other refractory counters
   decrement;
4. the threshold offset ``g`` decays multiplicatively by
   ``exp(-dt / tau_g)`` for every neuron, then grows by ``g0`` for each
   neuron that spiked (when adaptation is enabled).

Refractory neurons never integrate input and never spike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NeuronParams:
    """Constants of one neuron group, in millivolts and milliseconds."""

    u_rest: float = -65.0
    u_reset: float = -65.0
    u_thr0: float = -52.0
    tau_m: float = 20.0
    r_mem: float = 1.0
    delta_t_ref: float = 5.0
    g0: float = 0.05
    tau_g: float = 1.0e6
    adaptive: bool = True

    def __post_init__(self) -> None:
        if self.tau_m <= 0.0:
            raise ValueError(f"tau_m must be positive, got {self.tau_m}")
        if self.tau_g <= 0.0:
            raise ValueError(f"tau_g must be positive, got {self.tau_g}")
        if self.delta_t_ref < 0.0:
            raise ValueError(f"delta_t_ref must be non-negative, got {self.delta_t_ref}")
        if self.g0 < 0.0:
            raise ValueError(f"g0 must be non-negative, got {self.g0}")
        if self.u_reset > self.u_thr0:
            raise ValueError(
                f"u_reset ({self.u_reset}) above u_thr0 ({self.u_thr0}) "
                "would make the neuron fire unconditionally"
            )

    def refractory_steps(self, dt: float) -> int:
        return int(math.ceil(self.delta_t_ref / dt))


@dataclass
class NeuronState:
    """Per-neuron variables: potential, threshold offset, refractory countdown."""

    u: np.ndarray
    g: np.ndarray
    refrac_remaining: np.ndarray


def make_state(n: int, params: NeuronParams) -> NeuronState:
    """Fresh state at rest with no adaptation and no refractory carry-over."""
    return NeuronState(
        u=np.full(n, params.u_rest, dtype=np.float64),
        g=np.zeros(n, dtype=np.float64),
        refrac_remaining=np.zeros(n, dtype=np.int64),
    )


def step(
    state: NeuronState,
    params: NeuronParams,
    input_increment: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Advance the group by one tick in place and return the boolean spike vector.

    ``input_increment`` is the summed synaptic drive for this tick in
    millivolts, one entry per neuron.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    u, g, refrac = state.u, state.g, state.refrac_remaining
    if input_increment.shape != u.shape:
        raise ValueError(
            f"input_increment shape {input_increment.shape} does not match "
            f"neuron count {u.shape}"
        )

    active = refrac == 0
    u += (dt / params.tau_m) * (params.u_rest - u)
    u += np.where(active, input_increment, 0.0)

    spikes = active & (u >= params.u_thr0 + g)

    u[spikes] = params.u_reset
    refrac[~active] -= 1
    refrac[spikes] = params.refractory_steps(dt)

    g *= math.exp(-dt / params.tau_g)
    if params.adaptive:
        g[spikes] += params.g0
    return spikes

