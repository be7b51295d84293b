"""Run configuration: one flat key/value namespace covering every
hyperparameter, with defaults set to the best-performing published values.

Config files are UTF-8 text, one ``key = value`` pair per line, ``#``
starting a comment, so a string value holds neither ``#`` nor a line
break.  Unknown keys are rejected.  Command-line overrides
(``key=value`` strings) are applied after the file.  The special value
``eta_rpe = static`` selects the unmodulated reward mode instead of a
prediction-error rate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace


class ConfigError(ValueError):
    """Invalid configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason


@dataclass
class RunConfig:
    seed: int = 0
    dt: float = 1.0

    # adaptive LIF constants (mV, ms)
    u_thr0: float = -52.0
    u_rest: float = -65.0
    u_reset: float = -65.0
    g0: float = 0.05
    tau_g: float = 1.0e6
    delta_t_ref: float = 5.0
    tau_m: float = 20.0
    r_mem: float = 1.0
    dec_r_mem: float = 8.0  # decoder drive gain; feature spikes are sparse
    lc_adaptive: bool = True
    dec_adaptive: bool = False

    # encoder
    f_max: float = 128.0
    intensity_max: float = 255.0

    # topology
    h_in: int = 22
    w_in: int = 22
    ch_lc: int = 100
    k: int = 15
    s: int = 4
    n_out: int = 1000
    n_c: int = 10
    w_inh: float = -100.0
    dec_within_group_inhibition: bool = False

    # phase schedule (ticks)
    t_adapt: int = 256
    t_dec: int = 256
    t_learn: int = 256

    # plasticity; the decoder's trace windows are asymmetric so that the
    # reward signal has a net co-activity drift to act on (symmetric windows
    # cancel LTP against LTD in expectation)
    stdp_eta_pre: float = 0.0001
    stdp_eta_post: float = 0.01
    rstdp_eta_pre: float = 0.1
    rstdp_eta_post: float = 0.1
    tau_plus: float = 20.0
    tau_minus: float = 20.0
    dec_tau_plus: float = 20.0
    dec_tau_minus: float = 10.0
    gamma: float = 1.0
    w_min: float = 0.0
    w_max: float = 1.0
    c_norm: float = 0.25

    # reward
    reward_mode: str = "td"
    eta_rpe: float = 0.125
    alpha: float = 0.9

    # sample budgets: eval_samples, svm_train_samples and svm_test_samples
    # read 0 as the whole split; lc_samples, decoder_samples and
    # conditioning_iters count presentations, so 0 trains nothing
    lc_samples: int = 2000
    decoder_samples: int = 10000
    eval_samples: int = 0

    # conditioning protocol
    stimulus_class: int = 0
    conditioning_iters: int = 600
    swap_at: int = 200

    # linear readout baseline
    svm_train_samples: int = 10000
    svm_test_samples: int = 0
    svm_l2: float = 0.0001
    svm_epochs: int = 10

    # two-digit composition
    xor_train: int = 10000
    xor_test: int = 10000

    # data and output plumbing
    classes: str = ""       # e.g. "0,1": keep only these digits, relabeled 0..n-1
    data_dir: str = ""
    out_dir: str = "runs"
    metrics_window: int = 100

    def class_list(self) -> list[int] | None:
        if not self.classes.strip():
            return None
        try:
            return [int(tok) for tok in self.classes.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError("classes", f"expected comma-separated integers, got {self.classes!r}")

    def validate(self) -> None:
        """The checks no parameter class owns, then those of every class."""
        if self.seed < 0:
            raise ConfigError("seed", "must be non-negative")
        if self.f_max * self.dt / 1000.0 > 1.0:
            raise ConfigError("f_max", "per-tick spike probability f_max * dt / 1000 exceeds 1")
        for key in ("lc_samples", "decoder_samples", "eval_samples", "svm_train_samples",
                    "svm_test_samples", "conditioning_iters", "swap_at"):
            if getattr(self, key) < 0:
                raise ConfigError(key, "sample counts must be non-negative")
        for key in ("xor_train", "xor_test"):
            if getattr(self, key) < 1:
                raise ConfigError(key, "the two-digit set needs at least one sample")
        if self.svm_epochs < 1:
            raise ConfigError("svm_epochs", "must be at least 1")
        if self.svm_l2 <= 0:
            raise ConfigError("svm_l2", "must be positive")
        if self.metrics_window < 1:
            raise ConfigError("metrics_window", "must be at least 1")
        cl = self.class_list()
        if cl is not None and len(cl) < 1:
            raise ConfigError("classes", "must name at least one class")
        self.parameters()

    def parameters(self) -> SimpleNamespace:
        """Every object of ``parameter_table``, built and checked by its class."""
        built = {}
        for name, (make, _, args) in parameter_table().items():
            if make is None:
                continue
            try:
                built[name] = make(**{arg: getattr(self, key) for arg, key in args.items()})
            except ConfigError as e:
                raise ConfigError(args.get(e.key, e.key), e.reason) from None
        return SimpleNamespace(**built)


def parameter_table() -> dict[str, tuple]:
    """The one map from keys to objects, ``name: (make, held, args)``: ``make``
    builds and checks it (None: only compared), ``held`` reads its arguments
    back from a ``Network`` (None: not held), and ``args`` gives each one's key.
    ``network`` is ``build_network``'s own arguments, checked as ``lc_shape``
    and ``dec_inhibition``."""
    # imported here, as these modules import ConfigError from this one
    from .encoding import EncoderParams
    from .engine import PhaseSchedule
    from .neurons import NeuronParams
    from .plasticity import PlasticityParams
    from .reward import RewardState
    from .topology import LcShape, build_decoder_inhibition

    same = lambda *keys: {key: key for key in keys}
    neuron = same("u_rest", "u_reset", "u_thr0", "tau_m", "delta_t_ref", "g0", "tau_g")
    bounds = same("gamma", "w_min", "w_max")
    return {
        "lc_shape": (LcShape, attrgetter("lc_conn.shape"),
                     {**same("h_in", "w_in", "k", "s"), "ch_out": "ch_lc"}),
        "dec_inhibition": (build_decoder_inhibition, lambda net: SimpleNamespace(
            n_out=net.n_out, n_c=net.n_c, w_inh=net.dec_inhib.w_inh,
            within_group=net.dec_inhib.scope == "all"),
            {**same("n_out", "n_c", "w_inh"), "within_group": "dec_within_group_inhibition"}),
        "lc_inhibition": (None, attrgetter("lc_inhib"), same("w_inh")),
        "network": (dict, None, {**same("h_in", "w_in", "ch_lc", "k", "s", "n_out", "n_c", "seed",
                                         "w_inh"),
                                 "dec_within_group": "dec_within_group_inhibition"}),
        "encoder": (EncoderParams, attrgetter("encoder"), same("f_max", "intensity_max")),
        "lc_params": (NeuronParams, attrgetter("lc_params"),
                      {**neuron, "r_mem": "r_mem", "adaptive": "lc_adaptive"}),
        "dec_params": (NeuronParams, attrgetter("dec_params"),
                       {**neuron, "r_mem": "dec_r_mem", "adaptive": "dec_adaptive"}),
        "lc_plasticity": (PlasticityParams, attrgetter("lc_plasticity"),
                          {"eta_pre": "stdp_eta_pre", "eta_post": "stdp_eta_post",
                           **same("tau_plus", "tau_minus", "c_norm"), **bounds}),
        "dec_plasticity": (PlasticityParams, attrgetter("dec_plasticity"),
                           {"eta_pre": "rstdp_eta_pre", "eta_post": "rstdp_eta_post",
                            "tau_plus": "dec_tau_plus", "tau_minus": "dec_tau_minus", **bounds}),
        "schedule": (PhaseSchedule, None, same("t_adapt", "t_dec", "t_learn", "dt")),
        "reward_state": (RewardState, None, {"mode": "reward_mode", **same("eta_rpe", "alpha")}),
    }


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    field = _FIELDS[key]
    raw = raw.strip()
    if field.type == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(key, f"expected a boolean, got {raw!r}")
    try:
        if field.type == "int":
            return int(raw)
        if field.type == "float":
            value = float(raw)
            if math.isnan(value):  # passes every range check, and never equals itself
                raise ValueError(raw)
            return value
    except ValueError:
        raise ConfigError(key, f"expected a {field.type}, got {raw!r}")
    if "#" in raw or len(raw.splitlines()) > 1:  # the echoed config.txt could not hold it
        raise ConfigError(key, f"string values may not hold '#' or a line break, got {raw!r}")
    return raw


def _assign(cfg: RunConfig, key: str, raw: str) -> None:
    if key == "eta_rpe" and raw.strip().lower() == "static":
        cfg.reward_mode = "static"
        return
    if key not in _FIELDS:
        raise ConfigError(key, "unknown configuration key")
    setattr(cfg, key, _parse_value(key, raw))


def parse_config_file(path: str | Path, cfg: RunConfig) -> None:
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}", f"expected 'key = value', got {line.rstrip()!r}")
        key, raw = stripped.split("=", 1)
        _assign(cfg, key.strip(), raw)


def resolve_config(path: str | Path | None = None, overrides: list[str] = ()) -> RunConfig:
    """Defaults, then the file, then ``key=value`` overrides; validates last."""
    cfg = RunConfig()
    if path is not None:
        parse_config_file(path, cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, raw = item.split("=", 1)
        _assign(cfg, key.strip(), raw)
    cfg.validate()
    return cfg


def config_to_text(cfg: RunConfig) -> str:
    """Echo format: reparsing the result reproduces the configuration."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
