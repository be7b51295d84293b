"""Clock-driven spiking neural network with locally connected feature
learning (unsupervised, trace-based) and a reward-modulated decoding layer
trained from a scalar feedback signal."""

from .config import ConfigError, RunConfig, resolve_config
from .encoding import EncoderParams, encode
from .engine import (
    MODE_NONE,
    MODE_RSTDP_DECODER,
    MODE_STDP_LC,
    EngineError,
    Network,
    PhaseSchedule,
    SampleResult,
    build_network,
    checkpoint_load,
    checkpoint_save,
    decide,
    evaluate,
    run_sample,
    sample_rng,
    train_decoder,
    train_lc,
)
from .neurons import NeuronParams, NeuronState, make_state
from .plasticity import PlasticityParams, TraceState
from .reward import RewardState, compute_reward, modulate
from .topology import (
    DenseConnection,
    InhibitionMask,
    LcShape,
    LocalConnection,
    build_decoder_inhibition,
    build_lc_inhibition,
    count_parameters,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "RunConfig",
    "resolve_config",
    "EncoderParams",
    "encode",
    "MODE_NONE",
    "MODE_RSTDP_DECODER",
    "MODE_STDP_LC",
    "EngineError",
    "Network",
    "PhaseSchedule",
    "SampleResult",
    "build_network",
    "checkpoint_load",
    "checkpoint_save",
    "decide",
    "evaluate",
    "run_sample",
    "sample_rng",
    "train_decoder",
    "train_lc",
    "NeuronParams",
    "NeuronState",
    "make_state",
    "PlasticityParams",
    "TraceState",
    "RewardState",
    "compute_reward",
    "modulate",
    "DenseConnection",
    "InhibitionMask",
    "LcShape",
    "LocalConnection",
    "build_decoder_inhibition",
    "build_lc_inhibition",
    "count_parameters",
    "__version__",
]
