"""The paper's layer-wise pipeline, run once through the package's public API.

Sequence (the same one the command-line tools run): ``build_network`` ->
``train_lc`` -> checkpoint save/load -> ``train_decoder`` -> save/load ->
``evaluate`` -> ``extract_feature_matrix`` on train and test ->
``train_linear`` -> ``predict``.  Every stage is timed from outside; the
output checks and digests run between the timed regions.
"""

from __future__ import annotations

import hashlib
import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from lcsnn import readout
from lcsnn.engine import (
    PhaseSchedule,
    build_network,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    network_to_arrays,
    train_decoder,
    train_lc,
)
from lcsnn.reward import RewardState

from stimuli import make_stimuli

NORM_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # stimulus generator, see stimuli.make_stimuli
    side: int
    ch_lc: int
    k: int
    s: int
    n_out: int
    n_c: int
    schedule: tuple[int, int, int]
    lc_samples: int
    decoder_samples: int
    train_size: int  # training images; also the readout's training features
    test_size: int   # evaluation images; also the readout's test features
    source_size: int = 0  # images per synthetic 28x28 source pool (xor only)

    @property
    def n_lc(self) -> int:
        per_side = (self.side - self.k) // self.s + 1
        return self.ch_lc * per_side * per_side

    @property
    def weight_bytes(self) -> dict[str, int]:
        return {"lc": self.n_lc * self.k * self.k * 8, "decoder": self.n_lc * self.n_out * 8}

    def samples(self) -> dict[str, int]:
        """Samples each stage attempts in one pipeline run."""
        return {
            "train_lc": self.lc_samples,
            "train_decoder": self.decoder_samples,
            "evaluate": self.test_size,
            "features": self.train_size + self.test_size,
            "readout": self.test_size,
        }


# Why each workload exists is stated in BENCHMARK.json.  Sample counts are
# balanced so that every stage gets a similar share of a run: on a shared
# machine a stage timed over a short window is the noisiest figure.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            kind="blobs", side=22, ch_lc=25, k=13, s=3, n_out=100, n_c=2,
            schedule=(64, 64, 64), lc_samples=8, decoder_samples=12,
            train_size=16, test_size=32,
        ),
        Workload(
            name="paper",
            kind="blobs", side=22, ch_lc=100, k=15, s=4, n_out=1000, n_c=10,
            schedule=(256, 256, 256), lc_samples=4, decoder_samples=1,
            train_size=20, test_size=6,
        ),
        Workload(
            name="xor",
            kind="xor", side=40, ch_lc=1000, k=32, s=4, n_out=1000, n_c=2,
            schedule=(32, 32, 32), lc_samples=1, decoder_samples=1,
            train_size=6, test_size=6, source_size=64,
        ),
    )
}


def network_digest(net) -> str:
    h = hashlib.sha256()
    for name, arr in network_to_arrays(net).items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr))
    return h.hexdigest()


def numerics_digest(net, decisions, x_train, x_test) -> str:
    """sha256 over final weights, threshold offsets, decisions and features."""
    h = hashlib.sha256()
    for arr in (net.lc_conn.weights, net.dec_conn.weights, net.lc_g, net.dec_g,
                decisions, x_train, x_test):
        h.update(np.ascontiguousarray(arr))
    return h.hexdigest()


@dataclass
class Setup:
    train: object
    test: object
    net: object
    data_s: float
    setup_s: float


def setup(w: Workload, seed: int) -> Setup:
    t0 = perf_counter()
    train, test = make_stimuli(w.kind, w.side, w.n_c, w.train_size, w.test_size,
                               w.source_size, seed)
    t1 = perf_counter()
    net = build_network(h_in=w.side, w_in=w.side, ch_lc=w.ch_lc, k=w.k, s=w.s,
                        n_out=w.n_out, n_c=w.n_c, seed=seed)
    t2 = perf_counter()
    return Setup(train, test, net, data_s=t1 - t0, setup_s=t2 - t0)


class StageFailed(Exception):
    """An output check failed."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise StageFailed(what)


class Run:
    """Times and checks one pipeline run; ``tracer`` adds a span per stage.

    A check that fails, or a stage that raises, fails the stage it happens
    in; the stages after it never run and their samples fail with it.
    """

    def __init__(self, w: Workload, seed: int, work_dir: Path, tracer=None):
        self.w = w
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.stage = ""
        self.error = ""
        self.times: dict[str, float] = {}
        self.results: dict[str, object] = {"checkpoint_bytes": 0}

    def timed(self, stage: str, fn, *args, **kwargs):
        t0 = perf_counter()
        if self.tracer is None:
            out = fn(*args, **kwargs)
        else:
            with self.tracer.span(f"stage.{stage}"):
                out = fn(*args, **kwargs)
        self.times[stage] = self.times.get(stage, 0.0) + perf_counter() - t0
        return out

    def checkpoint(self, net, name: str):
        """Save, drop and reload the network; the reload must be byte-identical."""
        path = self.work_dir / f"{name}.blcn"
        digest = network_digest(net)
        self.timed("checkpoint_save", checkpoint_save, net, path)
        self.results["checkpoint_bytes"] += os.path.getsize(path)
        del net
        net = self.timed("checkpoint_load", checkpoint_load, path)
        os.remove(path)
        check(network_digest(net) == digest, "checkpoint reload differs from the saved network")
        return net

    def execute(self, s: Setup) -> None:
        try:
            self._stages(s)
        except Exception as e:  # the failure is reported in the result, not raised
            self.error = f"{self.stage}: {type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)

    def failed_samples(self) -> int:
        if not self.error:
            return 0
        per_stage = self.w.samples()
        stages = list(per_stage)
        return sum(per_stage[k] for k in stages[stages.index(self.stage):])

    def _stages(self, s: Setup) -> None:
        w, seed, res = self.w, self.seed, self.results
        schedule = PhaseSchedule(*w.schedule)
        net = s.net
        s.net = None  # the run owns the only reference, so a reload frees it

        self.stage = "train_lc"
        net.dec_conn.plastic = False
        self.timed("train_lc", train_lc, net, s.train, w.lc_samples, schedule, seed)
        check_weights(net.lc_conn, net.lc_plasticity)
        means = net.lc_conn.weights.reshape(net.n_lc, -1).mean(axis=1)
        check(bool(np.all(np.abs(means - net.lc_plasticity.c_norm) <= NORM_TOL)),
              "an LC neuron's incoming mean differs from c_norm")
        net.lc_conn.plastic = False
        net.dec_conn.plastic = True
        net = self.checkpoint(net, "lc")

        self.stage = "train_decoder"
        lc_before = hashlib.sha256(net.lc_conn.weights).digest()
        self.timed("train_decoder", train_decoder, net, s.train, w.decoder_samples, schedule,
                   RewardState(), seed)
        check_weights(net.dec_conn, net.dec_plasticity)
        check(hashlib.sha256(net.lc_conn.weights).digest() == lc_before,
              "decoder training changed the feature filters")
        net.dec_conn.plastic = False
        net = self.checkpoint(net, "network")

        self.stage = "evaluate"
        frozen = network_digest(net)
        accuracy, decisions = self.timed("evaluate", evaluate, net, s.test, schedule, seed)
        check(network_digest(net) == frozen, "evaluate changed the network")
        check(decisions.shape == (w.test_size,)
              and bool(np.all((decisions >= 0) & (decisions < net.n_c))),
              "a decision lies outside [0, n_c)")
        res["test_accuracy"] = accuracy

        self.stage = "features"
        x_train, y_train = self.timed("features", readout.extract_feature_matrix, net, s.train,
                                      w.train_size, schedule, seed)
        x_test, y_test = self.timed("features", readout.extract_feature_matrix, net, s.test,
                                    w.test_size, schedule, seed + 1)
        check(network_digest(net) == frozen, "feature extraction changed the network")
        for x in (x_train, x_test):
            check(bool(np.all((x >= 0) & (x <= schedule.t_learn) & (x == np.floor(x)))),
                  "a feature count lies outside [0, t_learn]")

        self.stage = "readout"
        model = self.timed("train_linear", readout.train_linear, x_train, y_train, seed=seed)
        predicted = self.timed("predict", readout.predict, model, x_test)
        check(bool(np.all((predicted >= 0) & (predicted < model.n_classes))),
              "a prediction lies outside the class range")
        res["readout_accuracy"] = float(np.mean(predicted == y_test))
        res["digest"] = numerics_digest(net, decisions, x_train, x_test)


def check_weights(conn, params) -> None:
    w = conn.weights
    check(bool(np.all((w >= params.w_min) & (w <= params.w_max))),
          "a weight lies outside [w_min, w_max]")
