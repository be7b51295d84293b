"""Per-sample reward signals and their conversion into a modulation scalar.

Two modes: ``static`` passes the raw reward through (+1 correct,
-1 otherwise); ``td`` emits the reward-prediction error
``eta_rpe * (r - ema_r)`` against an exponential moving average of past
rewards, so surprising outcomes modulate learning more strongly than
expected ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError

MODES = ("static", "td")


@dataclass
class RewardState:
    mode: str = "td"
    eta_rpe: float = 0.125
    alpha: float = 0.9       # EMA retention factor
    ema_r: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be one of {MODES}, got {self.mode!r}")
        if self.eta_rpe < 0.0:
            raise ConfigError("eta_rpe", f"must be non-negative, got {self.eta_rpe}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha", f"must lie in [0, 1], got {self.alpha}")


def compute_reward(predicted: int, target: int) -> int:
    """+1 iff the decision matches the target class, else -1."""
    return 1 if predicted == target else -1


def modulate(state: RewardState, r: int) -> float:
    """Turn a reward into the modulation scalar for one sample.

    In ``td`` mode the moving average is updated afterwards, in place;
    ``static`` mode never touches the state.
    """
    if r not in (1, -1):
        raise ValueError(f"reward must be +1 or -1, got {r}")
    if state.mode == "static":
        return float(r)
    m = state.eta_rpe * (r - state.ema_r)
    state.ema_r = state.alpha * state.ema_r + (1.0 - state.alpha) * r
    return m
