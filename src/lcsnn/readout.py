"""Spike-count features from the trained feature layer, plus a linear
max-margin classifier trained on them.

The classifier is a one-vs-rest hinge-loss linear model fit by stochastic
subgradient descent with L2 regularization, with per-dimension
standardization folded into the stored model.  Prediction is the argmax
over class scores with ties going to the lowest class index, so the
baseline itself is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .encoding import encode
from .engine import (
    STAGE_FEATURES,
    STAGE_MODEL,
    Network,
    PhaseSchedule,
    sample_rng,
    simulate,
)
from .neurons import step  # noqa: F401  wrapped by perfbench/tracer.py


def extract_features(
    net: Network,
    image: np.ndarray,
    schedule: PhaseSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-neuron feature-layer spike counts for one image.

    Simulates the feature layer alone (the decoder plays no part) for a
    warm-up of ``t_adapt`` ticks, then counts spikes over ``t_learn``
    ticks.  The network is not mutated.
    """
    window = replace(schedule, t_dec=schedule.t_learn, t_learn=0)
    spikes_in = encode(image, window.total, window.dt, rng, net.encoder)
    return simulate(net, spikes_in, window, rng, decoder=False).lc_activation


def extract_feature_matrix(
    net: Network,
    dataset,
    n_samples: int,
    schedule: PhaseSchedule,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (n, n_lc) and label vector for the first n samples."""
    n = min(n_samples, len(dataset))
    x = np.empty((n, net.n_lc), dtype=np.float64)
    for i in range(n):
        x[i] = extract_features(
            net, dataset.images[i], schedule, sample_rng(seed, STAGE_FEATURES, i)
        )
    return x, dataset.labels[:n].copy()


@dataclass
class LinearModel:
    weights: np.ndarray  # (n_classes, n_features)
    biases: np.ndarray   # (n_classes,)
    mean: np.ndarray     # standardization, applied at predict time
    scale: np.ndarray
    l2: float
    epochs: int
    seed: int

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


def _standardize_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    scale = np.zeros_like(std)  # constant dimensions stay at zero
    nonzero = std > 0.0
    scale[nonzero] = 1.0 / std[nonzero]
    return mean, scale


def train_linear(
    features: np.ndarray,
    labels: np.ndarray,
    l2: float = 1e-4,
    epochs: int = 10,
    seed: int = 0,
) -> LinearModel:
    """One-vs-rest hinge SGD with the 1/(lambda*t) step-size schedule.

    The returned model is the average of the SGD iterates, which is stable
    where the last iterate oscillates around the minimizer.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    classes = int(y.max()) + 1
    if np.unique(y).size < 2:
        raise ValueError("training data must contain at least two classes")
    mean, scale = _standardize_fit(x)
    # the bias rides along as a constant feature so it shares the step-size
    # schedule and the shrinkage (otherwise the huge early 1/(l2*t) steps
    # land only on the bias and never decay)
    xs = np.hstack([(x - mean) * scale, np.ones((x.shape[0], 1))])

    w = np.zeros((classes, xs.shape[1]), dtype=np.float64)
    w_avg = np.zeros_like(w)
    rng = sample_rng(seed, STAGE_MODEL)
    t = 0
    signs = np.full(classes, -1.0)
    for _ in range(epochs):
        for i in rng.permutation(xs.shape[0]):
            t += 1
            eta = 1.0 / (l2 * t)
            xi = xs[i]
            target = signs.copy()
            target[y[i]] = 1.0
            margin_violated = target * (w @ xi) < 1.0
            w *= 1.0 - eta * l2
            if margin_violated.any():
                w[margin_violated] += eta * target[margin_violated, None] * xi[None, :]
            w_avg += w
    w_avg /= t
    return LinearModel(weights=w_avg[:, :-1], biases=w_avg[:, -1], mean=mean, scale=scale,
                       l2=l2, epochs=epochs, seed=seed)


def predict(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Argmax class per row of an (n, n_features) matrix; ties resolve to the
    lowest class index."""
    x = np.asarray(features, dtype=np.float64)
    n_features = model.weights.shape[1]
    if x.ndim != 2 or x.shape[1] != n_features:
        raise ValueError(f"expected features of shape (n, {n_features}), got {x.shape}")
    x = (x - model.mean) * model.scale
    return np.argmax(x @ model.weights.T + model.biases, axis=1)


def save_model(model: LinearModel, path: str | Path) -> None:
    ckpt.save_arrays(
        path,
        {
            "weights": model.weights,
            "biases": model.biases,
            "mean": model.mean,
            "scale": model.scale,
            "hyper": np.array([model.l2, float(model.epochs), float(model.seed)]),
        },
    )
