"""Command-line front end.

Every command runs in one order: resolve the configuration (defaults, the
``--config`` file, every ``--set``, then the named flags), load its data
and checkpoint, build and check the network, and only then create a fresh
run directory ``<command>-<epoch>-<seed>`` under the output root, run, and
write there the echoed configuration and the artifacts (metrics CSVs,
heatmaps, checkpoints).  A rejected configuration, dataset, checkpoint or
grid value therefore leaves no run directory.  Each command prints a
one-line summary.  Exit codes: 0 success, 1 configuration or usage error,
2 missing file or I/O error, 3 internal failure.

The dataset root is the ``data_dir`` key (``--data-dir``), falling back to
the ``MNIST_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np

from . import data as datamod
from . import monitors, readout
from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig, config_to_text, resolve_config
from .encoding import EncoderParams
from .engine import (
    EngineError,
    Network,
    PhaseSchedule,
    build_network,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    network_to_arrays,
    train_decoder,
    train_lc,
)
from .neurons import NeuronParams
from .plasticity import PlasticityParams
from .reward import RewardState

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


def network_from_config(cfg: RunConfig) -> Network:
    """The one map from configuration keys to the network's parameter objects."""
    neuron = dict(u_rest=cfg.u_rest, u_reset=cfg.u_reset, u_thr0=cfg.u_thr0, tau_m=cfg.tau_m,
                  delta_t_ref=cfg.delta_t_ref, g0=cfg.g0, tau_g=cfg.tau_g)
    bounds = dict(gamma=cfg.gamma, w_min=cfg.w_min, w_max=cfg.w_max)
    return build_network(
        h_in=cfg.h_in, w_in=cfg.w_in, ch_lc=cfg.ch_lc, k=cfg.k, s=cfg.s,
        n_out=cfg.n_out, n_c=cfg.n_c, seed=cfg.seed,
        encoder=EncoderParams(f_max=cfg.f_max, intensity_max=cfg.intensity_max),
        lc_params=NeuronParams(r_mem=cfg.r_mem, adaptive=cfg.lc_adaptive, **neuron),
        dec_params=NeuronParams(r_mem=cfg.dec_r_mem, adaptive=cfg.dec_adaptive, **neuron),
        lc_plasticity=PlasticityParams(
            eta_pre=cfg.stdp_eta_pre, eta_post=cfg.stdp_eta_post, tau_plus=cfg.tau_plus,
            tau_minus=cfg.tau_minus, c_norm=cfg.c_norm, **bounds,
        ),
        dec_plasticity=PlasticityParams(
            eta_pre=cfg.rstdp_eta_pre, eta_post=cfg.rstdp_eta_post, tau_plus=cfg.dec_tau_plus,
            tau_minus=cfg.dec_tau_minus, **bounds,
        ),
        w_inh=cfg.w_inh,
        dec_within_group=cfg.dec_within_group_inhibition,
    )


def schedule_from_config(cfg: RunConfig) -> PhaseSchedule:
    return PhaseSchedule(cfg.t_adapt, cfg.t_dec, cfg.t_learn, cfg.dt)


def reward_state_from_config(cfg: RunConfig) -> RewardState:
    return RewardState(mode=cfg.reward_mode, eta_rpe=cfg.eta_rpe, alpha=cfg.alpha)


def data_root(cfg: RunConfig) -> Path:
    root = cfg.data_dir or os.environ.get("MNIST_DIR", "")
    if not root:
        raise ConfigError("data_dir", "set --data-dir, the data_dir key, or MNIST_DIR")
    return Path(root)


def _check_images(cfg: RunConfig, ds: datamod.Dataset) -> datamod.Dataset:
    h, w = ds.images.shape[1:]
    if (h, w) != (cfg.h_in, cfg.w_in):
        raise ConfigError("h_in" if h != cfg.h_in else "w_in",
                          f"the images are {h}x{w} but the network takes {cfg.h_in}x{cfg.w_in}")
    return ds


def _check_classes(cfg: RunConfig, ds: datamod.Dataset) -> datamod.Dataset:
    if ds.class_count > cfg.n_c:
        raise ConfigError("classes", f"the data has {ds.class_count} classes but the decoder "
                                     f"votes among n_c = {cfg.n_c} groups")
    return ds


def load_split(cfg: RunConfig, split: str) -> datamod.Dataset:
    """One MNIST split, center-cropped to ``h_in`` and restricted to ``classes``."""
    ds = datamod.load_mnist_split(data_root(cfg), split)
    if cfg.h_in <= min(ds.images.shape[1:]):
        ds = datamod.center_crop(ds, target=cfg.h_in)
    classes = cfg.class_list()
    if classes is not None:
        ds = datamod.filter_classes(ds, classes, relabel=True)
    return _check_images(cfg, ds)


def make_run_dir(cfg: RunConfig, command: str) -> Path:
    run_dir = Path(cfg.out_dir) / f"{command}-{int(time.time())}-{cfg.seed}"
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(exist_ok=False)  # collisions are an error, not silently merged
    (run_dir / "config.txt").write_text(config_to_text(cfg), encoding="utf-8")
    return run_dir


def append_summary(cfg: RunConfig, command: str, run_dir: Path, metric: str, value: float) -> None:
    path = Path(cfg.out_dir) / "summary.csv"
    fresh = not path.exists()
    with open(path, "a", newline="") as f:
        writer = csv.writer(f)
        if fresh:
            writer.writerow(["command", "run_dir", "seed", "metric", "value"])
        writer.writerow([command, run_dir.name, cfg.seed, metric, f"{value:.6f}"])


def run_pipeline(cfg: RunConfig, train, test) -> tuple[Network, monitors.RunMetrics, float]:
    """Layer-wise training then evaluation: feature layer, decoder, test accuracy."""
    net = network_from_config(cfg)
    schedule = schedule_from_config(cfg)
    train_lc(net, train, cfg.lc_samples, schedule, cfg.seed, window=cfg.metrics_window)
    metrics = train_decoder(
        net, train, cfg.decoder_samples, schedule, reward_state_from_config(cfg),
        cfg.seed, window=cfg.metrics_window,
    )
    accuracy, _ = evaluate(net, test, schedule, cfg.seed, n_samples=cfg.eval_samples or None)
    return net, metrics, accuracy


def cmd_train_lc(cfg: RunConfig, args) -> int:
    ds = load_split(cfg, "train")
    net = network_from_config(cfg)
    run_dir = make_run_dir(cfg, "train-lc")
    norms = train_lc(net, ds, cfg.lc_samples, schedule_from_config(cfg), cfg.seed,
                     window=cfg.metrics_window)
    checkpoint_save(net, run_dir / "network.blcn")
    monitors.write_convergence_csv(run_dir / "lc_convergence.csv", norms, cfg.metrics_window,
                                   cfg.lc_samples)
    monitors.write_pgm(
        run_dir / "lc_filters.pgm",
        monitors.filter_grid_image(net.lc_conn, cfg.w_min, cfg.w_max, separators=True),
    )
    last = norms[-1] if norms else 0.0
    append_summary(cfg, "train-lc", run_dir, "final_window_weight_change", last)
    print(f"train-lc: {cfg.lc_samples} samples, final window weight change {last:.4f} -> {run_dir}")
    return EXIT_OK


def _check_matches_config(net: Network, cfg: RunConfig) -> Network:
    """Reject a loaded network whose non-weight arrays differ from the config's."""
    ref = network_from_config(cfg)
    ref.lc_trained = net.lc_trained  # training state, not configuration
    got = network_to_arrays(net)
    for name, want in network_to_arrays(ref).items():
        if name.endswith(("_weights", "_g")):
            continue  # learned state, not configuration
        if not np.array_equal(got[name], want, equal_nan=True):
            raise ConfigError(name, f"checkpoint holds {got[name].tolist()} but the "
                                    f"configuration gives {want.tolist()}")
    return net


def _write_decoder_map(path: Path, net: Network, cfg: RunConfig) -> None:
    monitors.write_pgm(path, monitors.dense_map_image(net.dec_conn, cfg.w_min, cfg.w_max))


def _load_lc_checkpoint(path: str) -> Network:
    net = checkpoint_load(path)
    if not net.lc_trained:
        raise EngineError(f"{path} holds an untrained feature layer; run train-lc first")
    return net


def cmd_train_decoder(cfg: RunConfig, args) -> int:
    net = _check_matches_config(_load_lc_checkpoint(args.lc_checkpoint), cfg)
    ds = _check_classes(cfg, load_split(cfg, "train"))
    run_dir = make_run_dir(cfg, "train-decoder")
    metrics = train_decoder(
        net, ds, cfg.decoder_samples, schedule_from_config(cfg),
        reward_state_from_config(cfg), cfg.seed, window=cfg.metrics_window,
    )
    checkpoint_save(net, run_dir / "network.blcn")
    metrics.write_metrics_csv(run_dir / "metrics.csv")
    metrics.write_rates_csv(run_dir / "rates.csv")
    _write_decoder_map(run_dir / "decoder_weights.pgm", net, cfg)
    final_acc = metrics.running_accuracy()[-1] if len(metrics) else 0.0
    append_summary(cfg, "train-decoder", run_dir, "final_running_accuracy", final_acc)
    print(
        f"train-decoder: {cfg.decoder_samples} samples, "
        f"final running accuracy {final_acc:.4f} -> {run_dir}"
    )
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args) -> int:
    net = _check_matches_config(checkpoint_load(args.checkpoint), cfg)
    ds = _check_classes(cfg, load_split(cfg, "test"))
    run_dir = make_run_dir(cfg, "eval")
    n = cfg.eval_samples or None
    accuracy, decisions = evaluate(net, ds, schedule_from_config(cfg), cfg.seed, n_samples=n)
    with open(run_dir / "decisions.csv", "w", newline="") as f:
        f.write("sample_index,decision,label\n")
        for i, d in enumerate(decisions):
            f.write(f"{i},{int(d)},{int(ds.labels[i])}\n")
    append_summary(cfg, "eval", run_dir, "test_accuracy", accuracy)
    print(f"eval: accuracy {accuracy:.4f} on {decisions.shape[0]} samples -> {run_dir}")
    return EXIT_OK


def cmd_conditioning(cfg: RunConfig, args) -> int:
    if cfg.n_c != 2:
        raise ConfigError("n_c", "the conditioning protocol uses two response groups")
    net = _check_matches_config(_load_lc_checkpoint(args.lc_checkpoint), cfg)
    stimuli = datamod.filter_classes(load_split(cfg, "train"), [cfg.stimulus_class])
    run_dir = make_run_dir(cfg, "conditioning")
    _write_decoder_map(run_dir / "decoder_weights_initial.pgm", net, cfg)
    # task 1 rewards group 1; after the swap the rewarded response is group 0
    target_for = lambda i: 1 if i < cfg.swap_at else 0
    metrics = train_decoder(
        net, stimuli, cfg.conditioning_iters, schedule_from_config(cfg),
        reward_state_from_config(cfg), cfg.seed, target_for=target_for,
        window=cfg.metrics_window,
    )
    metrics.write_metrics_csv(run_dir / "metrics.csv")
    metrics.write_rates_csv(run_dir / "rates.csv")
    _write_decoder_map(run_dir / "decoder_weights_final.pgm", net, cfg)
    rr = metrics.reward_rate()
    final_rate = rr[-1] if rr.size else 0.0
    append_summary(cfg, "conditioning", run_dir, "final_reward_rate", final_rate)
    print(
        f"conditioning: {cfg.conditioning_iters} iterations, swap at {cfg.swap_at}, "
        f"final reward rate {final_rate:.4f} -> {run_dir}"
    )
    return EXIT_OK


def cmd_xor(cfg: RunConfig, args) -> int:
    from .engine import STAGE_XOR, sample_rng

    root = data_root(cfg)
    train_src = datamod.load_mnist_split(root, "train")
    test_src = datamod.load_mnist_split(root, "test")
    train = datamod.build_xor_mnist(train_src, cfg.xor_train, sample_rng(cfg.seed, STAGE_XOR, 0))
    test = datamod.build_xor_mnist(test_src, cfg.xor_test, sample_rng(cfg.seed, STAGE_XOR, 1))
    for ds in (train, test):
        _check_classes(cfg, _check_images(cfg, ds))
    run_dir = make_run_dir(cfg, "xor")
    net, metrics, accuracy = run_pipeline(cfg, train, test)
    checkpoint_save(net, run_dir / "network.blcn")
    metrics.write_metrics_csv(run_dir / "metrics.csv")
    metrics.write_rates_csv(run_dir / "rates.csv")
    append_summary(cfg, "xor", run_dir, "test_accuracy", accuracy)
    print(f"xor: test accuracy {accuracy:.4f} -> {run_dir}")
    return EXIT_OK


def cmd_svm(cfg: RunConfig, args) -> int:
    net = _check_matches_config(_load_lc_checkpoint(args.lc_checkpoint), cfg)
    train = load_split(cfg, "train")
    test = load_split(cfg, "test")
    run_dir = make_run_dir(cfg, "svm")
    schedule = schedule_from_config(cfg)
    x_train, y_train = readout.extract_feature_matrix(
        net, train, cfg.svm_train_samples, schedule, cfg.seed
    )
    x_test, y_test = readout.extract_feature_matrix(
        net, test, cfg.svm_test_samples or len(test), schedule, cfg.seed + 1
    )
    model = readout.train_linear(x_train, y_train, l2=cfg.svm_l2, epochs=cfg.svm_epochs,
                                 seed=cfg.seed)
    readout.save_model(model, run_dir / "linear_model.blcn")
    accuracy = float(np.mean(readout.predict(model, x_test) == y_test))
    append_summary(cfg, "svm", run_dir, "test_accuracy", accuracy)
    print(f"svm: test accuracy {accuracy:.4f} on {x_test.shape[0]} samples -> {run_dir}")
    return EXIT_OK


def _sweep_accuracy(cfg: RunConfig, train, test) -> float:
    """One run's test accuracy (called directly and from worker processes)."""
    return run_pipeline(cfg, train, test)[2]


def cmd_sweep(cfg: RunConfig, args) -> int:
    grid: dict[str, list[str]] = {}
    for item in args.grid or []:
        key, _, values = item.partition("=")
        values = [v.strip() for v in values.split(",") if v.strip()]
        if not values:
            raise ConfigError(item, "grid entries must look like key=v1,v2")
        grid[key.strip()] = values
    combos = [dict(zip(grid, values)) for values in product(*grid.values())] or [{}]
    seeds = (args.seeds or str(cfg.seed)).split(",")
    points = list(product(combos, seeds))
    # each run resolves like a command line that also sets its grid values and seed
    configs = [
        _resolve(argparse.Namespace(**{**vars(args), "seed": None, "set": [
            *args.set, *(f"{k}={v}" for k, v in combo.items()), f"seed={seed}"]}))
        for combo, seed in points
    ]
    splits: dict[tuple, tuple] = {}  # runs that read the same data share one copy
    jobs = []
    for job in configs:
        key = (job.data_dir, job.h_in, job.w_in, job.classes)
        if key not in splits:
            splits[key] = (load_split(job, "train"), load_split(job, "test"))
        for ds in splits[key]:
            _check_classes(job, ds)
        jobs.append((job, *splits[key]))

    run_dir = make_run_dir(cfg, "sweep")
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            accuracies = list(pool.map(_sweep_accuracy, *zip(*jobs)))
    else:
        accuracies = [_sweep_accuracy(*job) for job in jobs]

    with open(run_dir / "sweep_runs.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([*grid, "seed", "accuracy"])
        for (combo, _), job, acc in zip(points, configs, accuracies):
            writer.writerow([*combo.values(), job.seed, f"{acc:.6f}"])
    with open(run_dir / "sweep_summary.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([*grid, "n_seeds", "mean_accuracy", "std_accuracy"])
        for i, combo in enumerate(combos):
            accs = accuracies[i * len(seeds):(i + 1) * len(seeds)]
            mean = float(np.mean(accs))
            std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
            writer.writerow([*combo.values(), len(accs), f"{mean:.6f}", f"{std:.6f}"])
            print(f"sweep {combo or '(base)'}: {mean:.4f} +/- {std:.4f} over {len(accs)} seeds")
    print(f"sweep: {len(accuracies)} runs -> {run_dir}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                   help="override one configuration key (repeatable)")
    p.add_argument("--seed", type=int, help="run seed")
    p.add_argument("--data-dir", default="", help="dataset root (falls back to MNIST_DIR)")
    p.add_argument("--out", default=None, help="output root for run directories")
    p.add_argument("--eta-rpe", default=None, metavar="VALUE|static",
                   help="prediction-error rate, or 'static' for unmodulated rewards")


COMMANDS = {
    "train-lc": (cmd_train_lc, "unsupervised feature-layer training"),
    "train-decoder": (cmd_train_decoder, "reward-modulated decoder training"),
    "eval": (cmd_eval, "frozen-network test-set accuracy"),
    "conditioning": (cmd_conditioning, "fixed-reward conditioning with a mid-run swap"),
    "xor": (cmd_xor, "two-digit composition task end to end"),
    "svm": (cmd_svm, "linear readout baseline on feature-layer spike counts"),
    "sweep": (cmd_sweep, "grid of full pipeline runs with mean/std summary"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lcsnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name in ("train-decoder", "conditioning", "svm"):
            p.add_argument("--lc-checkpoint", required=True,
                           help="network checkpoint with trained feature filters")
        if name == "eval":
            p.add_argument("--checkpoint", required=True, help="fully trained network checkpoint")
        if name == "sweep":
            p.add_argument("--grid", action="append", metavar="KEY=V1,V2",
                           help="one grid axis (repeatable)")
            p.add_argument("--seeds", default=None, help="comma-separated seed list")
            p.add_argument("--workers", type=int, default=1, help="parallel pipeline runs")
    return parser


def _resolve(args) -> RunConfig:
    """Defaults, then ``--config``, then every ``--set``, then the named flags."""
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.data_dir:
        overrides.append(f"data_dir={args.data_dir}")
    if args.out:
        overrides.append(f"out_dir={args.out}")
    if args.eta_rpe is not None:
        overrides.append(f"eta_rpe={args.eta_rpe}")
    return resolve_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        command, _ = COMMANDS[args.command]
        return command(cfg, args)
    except (ConfigError, EngineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, CheckpointError, datamod.IdxFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
