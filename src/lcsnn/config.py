"""Run configuration: one flat key/value namespace covering every
hyperparameter, with defaults set to the best-performing published values.

Config files are UTF-8 text, one ``key = value`` pair per line, ``#``
starting a comment.  Unknown keys are rejected.  Command-line overrides
(``key=value`` strings) are applied after the file.  The special value
``eta_rpe = static`` selects the unmodulated reward mode instead of a
prediction-error rate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


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

    # sample budgets (0 = whole split where applicable)
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
        if self.seed < 0:
            raise ConfigError("seed", "must be non-negative")
        if self.dt <= 0:
            raise ConfigError("dt", "must be positive")
        if self.tau_m <= 0:
            raise ConfigError("tau_m", "must be positive")
        if self.tau_g <= 0:
            raise ConfigError("tau_g", "must be positive")
        if min(self.tau_plus, self.tau_minus, self.dec_tau_plus, self.dec_tau_minus) <= 0:
            raise ConfigError("tau_plus", "trace time constants must be positive")
        if self.delta_t_ref < 0:
            raise ConfigError("delta_t_ref", "must be non-negative")
        if self.g0 < 0:
            raise ConfigError("g0", "must be non-negative")
        if self.u_reset > self.u_thr0:
            raise ConfigError("u_reset", "must not exceed u_thr0")
        if self.f_max <= 0 or self.f_max * self.dt / 1000.0 > 1.0:
            raise ConfigError("f_max", "per-tick spike probability must lie in (0, 1]")
        if self.intensity_max <= 0:
            raise ConfigError("intensity_max", "must be positive")
        if self.k > min(self.h_in, self.w_in):
            raise ConfigError("k", f"kernel exceeds input extent ({self.h_in}, {self.w_in})")
        if self.s < 1:
            raise ConfigError("s", "stride must be at least 1")
        if self.ch_lc < 1:
            raise ConfigError("ch_lc", "must be at least 1")
        if self.n_out < 1:
            raise ConfigError("n_out", "must be at least 1")
        if self.n_c < 1 or self.n_out % self.n_c != 0:
            raise ConfigError("n_c", f"must divide n_out ({self.n_out})")
        if self.w_inh >= 0:
            raise ConfigError("w_inh", "must be negative")
        if not (self.w_min < self.c_norm < self.w_max):
            raise ConfigError("c_norm", f"must lie inside ({self.w_min}, {self.w_max})")
        for key in ("stdp_eta_pre", "stdp_eta_post", "rstdp_eta_pre", "rstdp_eta_post"):
            if getattr(self, key) < 0:
                raise ConfigError(key, "learning rates must be non-negative")
        if self.w_min >= self.w_max:
            raise ConfigError("w_min", "must be below w_max")
        if min(self.t_adapt, self.t_dec, self.t_learn) < 0:
            raise ConfigError("t_adapt", "phase durations must be non-negative")
        if self.reward_mode not in ("static", "td"):
            raise ConfigError("reward_mode", "must be 'static' or 'td'")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha", "must lie in [0, 1]")
        if self.metrics_window < 1:
            raise ConfigError("metrics_window", "must be at least 1")
        cl = self.class_list()
        if cl is not None and len(cl) < 1:
            raise ConfigError("classes", "must name at least one class")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    field = _FIELDS[key]
    raw = raw.strip()
    if field.type in ("bool", bool):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(key, f"expected a boolean, got {raw!r}")
    try:
        if field.type in ("int", int):
            return int(raw)
        if field.type in ("float", float):
            return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a {field.type}, got {raw!r}")
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
