"""Run metrics (CSV time series) and weight heatmaps (binary PGM).

The per-sample metrics file has the fixed header
``sample_index,reward,modulation,running_accuracy,cumulative_accuracy``;
the rates file holds the windowed reward/punishment split.  All floats are
written with six decimals so reruns from the same seed produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .topology import LocalConnection

DEFAULT_WINDOW = 100


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over up to ``window`` samples, exact during warm-up."""
    x = np.asarray(x, dtype=np.float64)
    c = np.concatenate(([0.0], np.cumsum(x)))
    n = x.shape[0]
    idx = np.arange(1, n + 1)
    lo = np.maximum(idx - window, 0)
    return (c[idx] - c[lo]) / (idx - lo)


@dataclass
class RunMetrics:
    """Per-sample series collected while training the decoder."""

    window: int = DEFAULT_WINDOW
    rewards: list[float] = field(default_factory=list)
    modulations: list[float] = field(default_factory=list)

    def add(self, reward: float, modulation: float) -> None:
        self.rewards.append(reward)
        self.modulations.append(modulation)

    def __len__(self) -> int:
        return len(self.rewards)

    def cumulative_accuracy(self) -> np.ndarray:
        hits = np.asarray(self.rewards, dtype=np.float64) > 0
        return np.cumsum(hits, dtype=np.float64) / np.arange(1, hits.shape[0] + 1)

    def reward_rate(self) -> np.ndarray:
        hits = np.asarray(self.rewards, dtype=np.float64) > 0
        return moving_average(hits, self.window)

    def punishment_rate(self) -> np.ndarray:
        misses = np.asarray(self.rewards, dtype=np.float64) < 0
        return moving_average(misses, self.window)

    def write_metrics_csv(self, path: str | Path) -> None:
        running = self.reward_rate()  # a decision is correct exactly when it is rewarded
        cumulative = self.cumulative_accuracy()
        with open(path, "w", newline="") as f:
            f.write("sample_index,reward,modulation,running_accuracy,cumulative_accuracy\n")
            for i in range(len(self)):
                f.write(
                    f"{i},{self.rewards[i]:.6f},{self.modulations[i]:.6f},"
                    f"{running[i]:.6f},{cumulative[i]:.6f}\n"
                )

    def write_rates_csv(self, path: str | Path) -> None:
        rr = self.reward_rate()
        pr = self.punishment_rate()
        with open(path, "w", newline="") as f:
            f.write("sample_index,reward_rate,punishment_rate\n")
            for i in range(len(self)):
                f.write(f"{i},{rr[i]:.6f},{pr[i]:.6f}\n")


def write_convergence_csv(
    path: str | Path, norms: list[float], window: int, n_samples: int
) -> None:
    """Weight-change norm per feature-layer training window; the last may be shorter."""
    with open(path, "w", newline="") as f:
        f.write("window_end_sample,weight_change_norm\n")
        for i, v in enumerate(norms):
            f.write(f"{min((i + 1) * window, n_samples)},{v:.6f}\n")


def weights_to_gray(w: np.ndarray, w_min: float = 0.0, w_max: float = 1.0) -> np.ndarray:
    """Linear map [w_min, w_max] -> [0, 255] as uint8."""
    scaled = (np.asarray(w, dtype=np.float64) - w_min) / (w_max - w_min) * 255.0
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Binary (P5) 8-bit portable graymap."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def filter_grid_image(conn: LocalConnection, w_min: float = 0.0, w_max: float = 1.0) -> np.ndarray:
    """Tile every filter into one image: channels as row groups, receptive
    fields as columns, with 1-px white separator lines between tiles."""
    sh = conn.shape
    k, ch, nloc = sh.k, sh.ch_out, sh.n_locations
    img = np.full((ch * (k + 1) - 1, nloc * (k + 1) - 1), 255, dtype=np.uint8)
    tiles = weights_to_gray(conn.weights, w_min, w_max)
    for c in range(ch):
        for loc in range(nloc):
            r, s = divmod(loc, sh.w_out)
            y = c * (k + 1)
            x = loc * (k + 1)
            img[y : y + k, x : x + k] = tiles[c, r, s]
    return img
