"""Simulation engine: one per-tick core behind every regime, layer-wise
training, group-vote decoding, and checkpointing.

Topology and timing
-------------------
A network is input pixels -> locally connected feature layer -> dense
decoding layer, with static lateral inhibition inside each spiking layer.
Within one clock tick the feedforward sweep is instantaneous (input spikes
drive feature neurons, whose spikes drive decoder neurons in the same
tick) while lateral inhibition acts with a one-tick delay, since all
neurons of a layer update simultaneously.

Each sample is presented as one continuous Poisson stream split into
three phases: an adaptation period that lets the winner-take-all
competition settle, a decision period whose decoder spike counts elect
the predicted class by group vote, and a learning period during which the
connection being trained is updated.  Weights never change outside the
learning period.  Membrane potentials and refractory counters are reset
between samples; the adaptive threshold offsets persist across samples
during training (they are the slow homeostatic variable) and are left
untouched by evaluation, which runs every sample from a private copy of
the state.

One loop, :func:`simulate`, serves every regime, and the regime alone
decides which connection learns: the other one is never written, so
layer-wise training needs no step that freezes a layer.  Feature-layer
training (`stdp_lc` mode) runs the feature layer alone over the learning
period: unmodulated trace updates every tick, followed by renormalizing
each neuron's incoming weights.  Decoder training (`rstdp_decoder` mode)
runs all three phases; the modulation scalar is computed once from the
decision's validity right after the decision period and is applied to
every learning-period tick.  Inference (`none` mode) runs both layers for
the group vote, or the feature layer alone for the spike-count readout.

Determinism
-----------
Every stochastic choice flows from one run seed through
:func:`sample_rng`, which derives an independent, index-addressable
stream per (stage, sample).  Given (seed, configuration, dataset), every
spike, decision, and weight is reproducible bit for bit.  A network that
is only evaluated may be shared across workers; a training network is
owned by exactly one sequential run.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .encoding import EncoderParams, encode
from .monitors import RunMetrics
from .neurons import NeuronParams, make_state, step
from .plasticity import (
    PlasticityParams,
    apply_rstdp,
    apply_stdp,
    eligibility,
    lc_eligibility,
    make_traces,
    normalize_incoming,
    update_traces,
)
from .reward import RewardState, compute_reward, modulate
from .topology import (
    DenseConnection,
    InhibitionMask,
    LcShape,
    LocalConnection,
    build_decoder_inhibition,
    build_lc_inhibition,
    make_dense_connection,
    make_local_connection,
)

MODE_NONE = "none"
MODE_STDP_LC = "stdp_lc"
MODE_RSTDP_DECODER = "rstdp_decoder"

# rng stages; see sample_rng
STAGE_INIT = 0
STAGE_LC = 1
STAGE_DECODER = 2
STAGE_EVAL = 3
STAGE_FEATURES = 4
STAGE_MODEL = 5
STAGE_XOR = 6


class EngineError(RuntimeError):
    """Raised when a run is requested in an inconsistent configuration."""


def sample_rng(seed: int, stage: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one (stage, sample) pair of a run.

    Derivation is fixed: the run seed is the entropy of a seed sequence
    spawned at key (stage, index), so streams never collide across stages
    or samples and any sample's stream can be reconstructed in isolation
    (which is what makes frozen-network evaluation order-independent).
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage, index)))


@dataclass(frozen=True)
class PhaseSchedule:
    """Phase durations in clock ticks, and the tick length in milliseconds."""

    t_adapt: int = 256
    t_dec: int = 256
    t_learn: int = 256
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.t_adapt < 0 or self.t_dec < 0 or self.t_learn < 0:
            raise ValueError("phase durations must be non-negative")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def total(self) -> int:
        return self.t_adapt + self.t_dec + self.t_learn


@dataclass
class Network:
    """Layers, connections, and the slow state that outlives single samples."""

    encoder: EncoderParams
    lc_params: NeuronParams
    lc_conn: LocalConnection
    lc_inhib: InhibitionMask
    dec_params: NeuronParams
    dec_conn: DenseConnection
    dec_inhib: InhibitionMask
    n_c: int
    lc_plasticity: PlasticityParams
    dec_plasticity: PlasticityParams
    lc_g: np.ndarray
    dec_g: np.ndarray
    lc_trained: bool = False  # set by train_lc; the CLI rejects untrained filters

    def __post_init__(self) -> None:
        if self.n_c < 1 or self.dec_conn.n_post % self.n_c != 0:
            raise ValueError(
                f"class count {self.n_c} must divide decoder size {self.dec_conn.n_post}"
            )
        if self.dec_conn.n_pre != self.lc_conn.n_post:
            raise ValueError("decoder input size does not match feature layer size")

    @property
    def n_in(self) -> int:
        return self.lc_conn.n_pre

    @property
    def n_lc(self) -> int:
        return self.lc_conn.n_post

    @property
    def n_out(self) -> int:
        return self.dec_conn.n_post

    @property
    def group_size(self) -> int:
        return self.n_out // self.n_c


def build_network(
    *,
    h_in: int,
    w_in: int,
    ch_lc: int,
    k: int,
    s: int,
    n_out: int,
    n_c: int,
    seed: int,
    encoder: EncoderParams = EncoderParams(),
    lc_params: NeuronParams = NeuronParams(adaptive=True),
    dec_params: NeuronParams = NeuronParams(adaptive=False, r_mem=8.0),
    lc_plasticity: PlasticityParams = PlasticityParams(eta_pre=0.0001, eta_post=0.01, c_norm=0.25),
    dec_plasticity: PlasticityParams = PlasticityParams(eta_pre=0.1, eta_post=0.1, tau_minus=10.0),
    w_inh: float = -100.0,
    dec_within_group: bool = False,
) -> Network:
    """Assemble a network with uniformly random weights.

    The feature layer is adaptive, the decoder is plain LIF unless
    overridden via ``dec_params``.  Weight initialization draws the local
    filters first, then the dense decoder, from the run's init stream.

    The default decoder parameters reflect the calibrated operating
    point: a drive gain well above 1 (winner-take-all competition keeps
    feature-layer spikes sparse relative to the threshold gap) and an
    asymmetric trace window (a symmetric one cancels potentiation against
    depression in expectation, leaving the reward nothing to modulate).
    """
    shape = LcShape(h_in=h_in, w_in=w_in, ch_out=ch_lc, k=k, s=s)
    rng = sample_rng(seed, STAGE_INIT)
    lc_conn = make_local_connection(shape, rng)
    dec_conn = make_dense_connection(shape.n_post, n_out, rng)
    return Network(
        encoder=encoder,
        lc_params=lc_params,
        lc_conn=lc_conn,
        lc_inhib=build_lc_inhibition(shape, w_inh),
        dec_params=dec_params,
        dec_conn=dec_conn,
        dec_inhib=build_decoder_inhibition(n_out, n_c, w_inh, within_group=dec_within_group),
        n_c=n_c,
        lc_plasticity=lc_plasticity,
        dec_plasticity=dec_plasticity,
        lc_g=np.zeros(shape.n_post, dtype=np.float64),
        dec_g=np.zeros(n_out, dtype=np.float64),
    )


@dataclass
class SampleResult:
    group_counts: np.ndarray | None
    decision: int | None
    reward: float
    modulation: float
    lc_activation: np.ndarray  # feature spikes per neuron over the counting window


def decide(group_counts: np.ndarray, rng: np.random.Generator) -> int:
    """Most active group wins; exact ties are broken uniformly at random.

    The generator is consumed only when there actually is a tie, so
    unambiguous decisions cost no randomness.
    """
    counts = np.asarray(group_counts)
    tied = np.flatnonzero(counts == counts.max())
    if tied.size == 1:
        return int(tied[0])
    return int(tied[rng.integers(tied.size)])


def simulate(
    net: Network,
    spikes_in: np.ndarray,
    schedule: PhaseSchedule,
    rng: np.random.Generator,
    mode: str = MODE_NONE,
    decoder: bool = True,
    target: int | None = None,
    reward_state: RewardState | None = None,
    on_step=None,
) -> SampleResult:
    """The per-tick loop: run an encoded input train through the network.

    ``spikes_in`` holds one input row per tick of ``schedule``.  The feature
    layer runs every tick, the decoder only when ``decoder`` is set.
    Feature spikes and decoder group votes are counted over the window
    ``[t_adapt, t_adapt + t_dec)``, and the vote is decided at the window's
    last tick.  ``mode`` names the connection that learns: its traces run from
    the first tick and its weights change from the window's end on (the
    learning period).  A learning run keeps the adapted threshold offsets
    in the network; a ``"none"`` run mutates nothing.  Callers validate the
    mode; an input row that is not one spike per network input is rejected.
    """
    if spikes_in.shape[1] != net.n_in:
        raise EngineError(f"image has {spikes_in.shape[1]} pixels but the network takes {net.n_in}")
    dt = schedule.dt
    window_end = schedule.t_adapt + schedule.t_dec
    lc_state = make_state(net.n_lc, net.lc_params)
    lc_state.g[:] = net.lc_g
    lc_prev = np.zeros(net.n_lc, dtype=bool)
    lc_counts = np.zeros(net.n_lc, dtype=np.int64)
    r_lc = net.lc_params.r_mem
    group_counts = None
    if decoder:
        dec_state = make_state(net.n_out, net.dec_params)
        dec_state.g[:] = net.dec_g
        dec_prev = np.zeros(net.n_out, dtype=bool)
        group_counts = np.zeros(net.n_c, dtype=np.int64)
        r_dec = net.dec_params.r_mem
    if mode == MODE_STDP_LC:
        traces = make_traces(net.n_in, net.n_lc)
        lc_rule = net.lc_plasticity
    elif mode == MODE_RSTDP_DECODER:
        traces = make_traces(net.n_lc, net.n_out)
    decision: int | None = None
    reward_value = 0.0
    m = 0.0

    for t, x in enumerate(spikes_in):
        lc_drive = net.lc_conn.forward(x) + net.lc_inhib.drive(lc_prev)
        if r_lc != 1.0:
            lc_drive *= r_lc
        lc_spikes = step(lc_state, net.lc_params, lc_drive, dt)

        if decoder:
            dec_drive = net.dec_conn.forward(lc_spikes) + net.dec_inhib.drive(dec_prev)
            if r_dec != 1.0:
                dec_drive *= r_dec
            dec_spikes = step(dec_state, net.dec_params, dec_drive, dt)
            dec_prev = dec_spikes

        if schedule.t_adapt <= t < window_end:
            lc_counts += lc_spikes
            if decoder:
                group_counts += dec_spikes.reshape(net.n_c, net.group_size).sum(axis=1)
                if t == window_end - 1:
                    decision = decide(group_counts, rng)
                    if mode == MODE_RSTDP_DECODER:
                        r = compute_reward(decision, target)
                        reward_value = float(r)
                        m = modulate(reward_state, r)

        if mode == MODE_STDP_LC:
            update_traces(traces, x, lc_spikes, lc_rule, dt)
            if t >= window_end:
                xi = lc_eligibility(net.lc_conn, traces, x, lc_spikes)
                net.lc_conn.weights = apply_stdp(net.lc_conn.weights, xi, lc_rule)
                if lc_rule.c_norm is not None:
                    normalize_incoming(net.lc_conn, lc_rule.c_norm, lc_rule.w_max)
        elif mode == MODE_RSTDP_DECODER:
            update_traces(traces, lc_spikes, dec_spikes, net.dec_plasticity, dt)
            if t >= window_end:
                xi = eligibility(traces, lc_spikes, dec_spikes)
                net.dec_conn.weights = apply_rstdp(net.dec_conn.weights, xi, m, net.dec_plasticity)

        lc_prev = lc_spikes
        if on_step is not None:
            on_step(t, net)

    if mode != MODE_NONE:
        # adaptation is part of training; evaluation leaves it untouched
        net.lc_g = lc_state.g
        if decoder:
            net.dec_g = dec_state.g
    return SampleResult(
        group_counts=group_counts,
        decision=decision,
        reward=reward_value,
        modulation=m,
        lc_activation=lc_counts,
    )


def run_sample(
    net: Network,
    image: np.ndarray,
    schedule: PhaseSchedule,
    rng: np.random.Generator,
    mode: str = MODE_NONE,
    target: int | None = None,
    reward_state: RewardState | None = None,
    on_step=None,
) -> SampleResult:
    """Present one image for a full phase schedule and return the outcome.

    ``mode`` selects which connection may learn: ``"none"`` leaves all
    weights bit-identical (pure evaluation), ``"stdp_lc"`` trains the
    feature filters unsupervised over just the learning period, with the
    decoder left out of the loop, and ``"rstdp_decoder"`` runs all three
    phases and updates the decoder with the reward-modulated rule (requires
    ``target`` and ``reward_state``).  ``on_step(t, net)`` is called after
    every tick, for monitoring.
    """
    if mode == MODE_STDP_LC:
        schedule = replace(schedule, t_adapt=0, t_dec=0)
    elif mode == MODE_RSTDP_DECODER:
        if target is None or reward_state is None:
            raise EngineError("rstdp_decoder mode needs a target label and a reward state")
        if schedule.t_dec < 1:
            raise EngineError("decoder training needs a decision period")
    elif mode != MODE_NONE:
        raise EngineError(f"unknown plasticity mode {mode!r}")

    spikes_in = encode(image, schedule.total, schedule.dt, rng, net.encoder)
    return simulate(net, spikes_in, schedule, rng, mode, decoder=mode != MODE_STDP_LC,
                    target=target, reward_state=reward_state, on_step=on_step)


def train_lc(
    net: Network,
    dataset,
    n_samples: int,
    schedule: PhaseSchedule,
    seed: int,
    window: int = 100,
) -> list[float]:
    """Unsupervised pass over ``n_samples`` images (labels are never read).

    Returns the weight-change norm of each ``window``-sample block, a
    cheap convergence monitor; the last block may be shorter.  Marks the
    filters as trained, even for ``n_samples=0``.
    """
    norms: list[float] = []
    w_ref = net.lc_conn.weights.copy()
    for i in range(n_samples):
        image = dataset.images[i % len(dataset)]
        run_sample(net, image, schedule, sample_rng(seed, STAGE_LC, i), mode=MODE_STDP_LC)
        if (i + 1) % window == 0 or i + 1 == n_samples:
            norms.append(float(np.linalg.norm(net.lc_conn.weights - w_ref)))
            w_ref = net.lc_conn.weights.copy()
    net.lc_trained = True
    return norms


def train_decoder(
    net: Network,
    dataset,
    n_samples: int,
    schedule: PhaseSchedule,
    reward_state: RewardState,
    seed: int,
    target_for=None,
    window: int = 100,
) -> RunMetrics:
    """Reward-modulated decoder training over ``n_samples`` presentations.

    Targets come from the dataset labels unless ``target_for(i)`` is
    given (the conditioning protocol fixes the rewarded class regardless
    of the input).  Only the decision's validity ever feeds back into the
    network.
    """
    if target_for is None and dataset.class_count > net.n_c:
        raise EngineError(f"{dataset.class_count} classes do not fit {net.n_c} decoder groups")
    metrics = RunMetrics(window=window)
    for i in range(n_samples):
        idx = i % len(dataset)
        target = int(target_for(i)) if target_for is not None else int(dataset.labels[idx])
        res = run_sample(
            net,
            dataset.images[idx],
            schedule,
            sample_rng(seed, STAGE_DECODER, i),
            mode=MODE_RSTDP_DECODER,
            target=target,
            reward_state=reward_state,
        )
        metrics.add(res.reward, res.modulation)
    return metrics


def evaluate(
    net: Network,
    dataset,
    schedule: PhaseSchedule,
    seed: int,
    n_samples: int | None = None,
) -> tuple[float, np.ndarray]:
    """Fraction of samples whose group vote matches the label.

    The learning period is skipped (it cannot influence the decision),
    and nothing in the network is mutated, so repeated evaluation from the
    same seed is bit-identical.
    """
    if schedule.t_dec < 1:
        raise EngineError("evaluation needs a decision period")
    if dataset.class_count > net.n_c:
        raise EngineError(f"{dataset.class_count} classes do not fit {net.n_c} decoder groups")
    eval_schedule = replace(schedule, t_learn=0)
    n = len(dataset) if n_samples is None else min(n_samples, len(dataset))
    decisions = np.empty(n, dtype=np.int64)
    correct = 0
    for i in range(n):
        res = run_sample(
            net, dataset.images[i], eval_schedule, sample_rng(seed, STAGE_EVAL, i)
        )
        decisions[i] = res.decision
        if res.decision == int(dataset.labels[i]):
            correct += 1
    return correct / n if n else 0.0, decisions


# --- checkpointing ---------------------------------------------------------


def _params_to_vec(p) -> np.ndarray:
    """Parameter fields in declaration order, which is the stored slot order;
    an unset optional (``c_norm``) is stored as NaN."""
    return np.array([np.nan if v is None else float(v) for v in astuple(p)])


def _params_from_vec(cls, v: np.ndarray):
    names = fields(cls)
    if len(v) != len(names):
        raise ValueError(f"{cls.__name__} needs {len(names)} values, got {len(v)}")
    return cls(*(bool(x) if f.type == "bool" else None if "None" in f.type and np.isnan(x)
                 else x for f, x in zip(names, v)))


def network_to_arrays(net: Network) -> dict[str, np.ndarray]:
    sh = net.lc_conn.shape
    return {
        "lc_shape": np.array([sh.h_in, sh.w_in, sh.ch_out, sh.k, sh.s], dtype=np.float64),
        # slot 3 is 1 while the filters are untrained
        "layout": np.array(
            [net.n_out, net.n_c, float(net.dec_inhib.scope == "all"), float(not net.lc_trained)]
        ),
        "inhibition": np.array([net.lc_inhib.w_inh, net.dec_inhib.w_inh]),
        "encoder": _params_to_vec(net.encoder),
        "lc_neurons": _params_to_vec(net.lc_params),
        "dec_neurons": _params_to_vec(net.dec_params),
        "lc_plasticity": _params_to_vec(net.lc_plasticity),
        "dec_plasticity": _params_to_vec(net.dec_plasticity),
        "lc_weights": net.lc_conn.weights,
        "dec_weights": net.dec_conn.weights,
        "lc_g": net.lc_g,
        "dec_g": net.dec_g,
    }


def network_from_arrays(arrays: dict[str, np.ndarray]) -> Network:
    try:
        h_in, w_in, ch_out, k, s = (int(v) for v in arrays["lc_shape"])
        # earlier files carry a fifth slot (decoder untrained), now unused
        n_out, n_c, within, lc_untrained = arrays["layout"][:4]
        shape = LcShape(h_in=h_in, w_in=w_in, ch_out=ch_out, k=k, s=s)
        lc_conn = LocalConnection(shape=shape, weights=arrays["lc_weights"].copy())
        dec_conn = DenseConnection(weights=arrays["dec_weights"].copy())
        w_inh_lc, w_inh_dec = arrays["inhibition"]
        return Network(
            encoder=_params_from_vec(EncoderParams, arrays["encoder"]),
            lc_params=_params_from_vec(NeuronParams, arrays["lc_neurons"]),
            lc_conn=lc_conn,
            lc_inhib=build_lc_inhibition(shape, float(w_inh_lc)),
            dec_params=_params_from_vec(NeuronParams, arrays["dec_neurons"]),
            dec_conn=dec_conn,
            dec_inhib=build_decoder_inhibition(
                int(n_out), int(n_c), float(w_inh_dec), within_group=bool(within)
            ),
            n_c=int(n_c),
            lc_plasticity=_params_from_vec(PlasticityParams, arrays["lc_plasticity"]),
            dec_plasticity=_params_from_vec(PlasticityParams, arrays["dec_plasticity"]),
            lc_g=arrays["lc_g"].copy(),
            dec_g=arrays["dec_g"].copy(),
            lc_trained=not lc_untrained,
        )
    except KeyError as e:
        raise ckpt.CheckpointError(f"checkpoint is missing array {e.args[0]!r}") from e
    except ValueError as e:
        raise ckpt.CheckpointError(f"inconsistent checkpoint contents: {e}") from e


def checkpoint_save(net: Network, path: str | Path) -> None:
    ckpt.save_arrays(path, network_to_arrays(net))


def checkpoint_load(path: str | Path) -> Network:
    return network_from_arrays(ckpt.load_arrays(path))
