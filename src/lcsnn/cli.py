"""Command-line front end.

Every command creates a fresh run directory ``<command>-<epoch>-<seed>``
under the output root, echoes the fully resolved configuration there for
provenance, writes its artifacts (metrics CSVs, heatmaps, checkpoints),
and prints a one-line summary.  Exit codes: 0 success, 1 configuration or
usage error, 2 missing file or I/O error, 3 internal failure.

The dataset root is taken from ``--data-dir``, falling back to the
``MNIST_DIR`` environment variable.
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


def lc_neuron_params(cfg: RunConfig) -> NeuronParams:
    return NeuronParams(
        u_rest=cfg.u_rest, u_reset=cfg.u_reset, u_thr0=cfg.u_thr0, tau_m=cfg.tau_m,
        r_mem=cfg.r_mem, delta_t_ref=cfg.delta_t_ref, g0=cfg.g0, tau_g=cfg.tau_g,
        adaptive=cfg.lc_adaptive,
    )


def dec_neuron_params(cfg: RunConfig) -> NeuronParams:
    return NeuronParams(
        u_rest=cfg.u_rest, u_reset=cfg.u_reset, u_thr0=cfg.u_thr0, tau_m=cfg.tau_m,
        r_mem=cfg.dec_r_mem, delta_t_ref=cfg.delta_t_ref, g0=cfg.g0, tau_g=cfg.tau_g,
        adaptive=cfg.dec_adaptive,
    )


def network_from_config(cfg: RunConfig) -> Network:
    return build_network(
        h_in=cfg.h_in, w_in=cfg.w_in, ch_lc=cfg.ch_lc, k=cfg.k, s=cfg.s,
        n_out=cfg.n_out, n_c=cfg.n_c, seed=cfg.seed,
        encoder=EncoderParams(f_max=cfg.f_max, intensity_max=cfg.intensity_max),
        lc_params=lc_neuron_params(cfg),
        dec_params=dec_neuron_params(cfg),
        lc_plasticity=PlasticityParams(
            eta_pre=cfg.stdp_eta_pre, eta_post=cfg.stdp_eta_post, tau_plus=cfg.tau_plus,
            tau_minus=cfg.tau_minus, gamma=cfg.gamma, w_min=cfg.w_min, w_max=cfg.w_max,
            c_norm=cfg.c_norm,
        ),
        dec_plasticity=PlasticityParams(
            eta_pre=cfg.rstdp_eta_pre, eta_post=cfg.rstdp_eta_post, tau_plus=cfg.dec_tau_plus,
            tau_minus=cfg.dec_tau_minus, gamma=cfg.gamma, w_min=cfg.w_min, w_max=cfg.w_max,
        ),
        w_inh=cfg.w_inh,
        dec_within_group=cfg.dec_within_group_inhibition,
    )


def schedule_from_config(cfg: RunConfig) -> PhaseSchedule:
    return PhaseSchedule(cfg.t_adapt, cfg.t_dec, cfg.t_learn, cfg.dt)


def reward_state_from_config(cfg: RunConfig) -> RewardState:
    return RewardState(mode=cfg.reward_mode, eta_rpe=cfg.eta_rpe, alpha=cfg.alpha)


def data_root(cfg: RunConfig, flag: str = "") -> Path:
    root = flag or cfg.data_dir or os.environ.get("MNIST_DIR", "")
    if not root:
        raise ConfigError("data_dir", "set --data-dir, the data_dir key, or MNIST_DIR")
    return Path(root)


def load_split(cfg: RunConfig, split: str, data_dir_flag: str = "") -> datamod.Dataset:
    ds = datamod.load_mnist_split(data_root(cfg, data_dir_flag), split)
    ds = datamod.center_crop(ds, target=cfg.h_in)
    classes = cfg.class_list()
    if classes is not None:
        ds = datamod.filter_classes(ds, classes, relabel=True)
    return ds


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
    """Layer-wise training then evaluation: feature layer, decoder, test accuracy.

    Returns the network with both connections frozen.
    """
    net = network_from_config(cfg)
    net.dec_conn.plastic = False
    schedule = schedule_from_config(cfg)
    train_lc(net, train, cfg.lc_samples, schedule, cfg.seed, window=cfg.metrics_window)
    net.lc_conn.plastic = False
    net.dec_conn.plastic = True
    metrics = train_decoder(
        net, train, cfg.decoder_samples, schedule, reward_state_from_config(cfg),
        cfg.seed, window=cfg.metrics_window,
    )
    net.dec_conn.plastic = False
    accuracy, _ = evaluate(net, test, schedule, cfg.seed, n_samples=cfg.eval_samples or None)
    return net, metrics, accuracy


def cmd_train_lc(cfg: RunConfig, args) -> int:
    run_dir = make_run_dir(cfg, "train-lc")
    ds = load_split(cfg, "train", args.data_dir)
    net = network_from_config(cfg)
    net.dec_conn.plastic = False
    norms = train_lc(net, ds, cfg.lc_samples, schedule_from_config(cfg), cfg.seed,
                     window=cfg.metrics_window)
    net.lc_conn.plastic = False
    net.dec_conn.plastic = True
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


def _load_lc_checkpoint(path: str) -> Network:
    net = checkpoint_load(path)
    if net.lc_conn.plastic:
        raise EngineError(f"{path} holds an untrained feature layer; run train-lc first")
    return net


def cmd_train_decoder(cfg: RunConfig, args) -> int:
    run_dir = make_run_dir(cfg, "train-decoder")
    net = _load_lc_checkpoint(args.lc_checkpoint)
    net.dec_conn.plastic = True
    ds = load_split(cfg, "train", args.data_dir)
    metrics = train_decoder(
        net, ds, cfg.decoder_samples, schedule_from_config(cfg),
        reward_state_from_config(cfg), cfg.seed, window=cfg.metrics_window,
    )
    net.dec_conn.plastic = False
    checkpoint_save(net, run_dir / "network.blcn")
    metrics.write_metrics_csv(run_dir / "metrics.csv")
    metrics.write_rates_csv(run_dir / "rates.csv")
    monitors.write_pgm(
        run_dir / "decoder_weights.pgm",
        monitors.dense_map_image(net.dec_conn, cfg.w_min, cfg.w_max),
    )
    final_acc = metrics.running_accuracy()[-1] if len(metrics) else 0.0
    append_summary(cfg, "train-decoder", run_dir, "final_running_accuracy", final_acc)
    print(
        f"train-decoder: {cfg.decoder_samples} samples, "
        f"final running accuracy {final_acc:.4f} -> {run_dir}"
    )
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args) -> int:
    run_dir = make_run_dir(cfg, "eval")
    net = checkpoint_load(args.checkpoint)
    net.lc_conn.plastic = False
    net.dec_conn.plastic = False
    ds = load_split(cfg, "test", args.data_dir)
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
    run_dir = make_run_dir(cfg, "conditioning")
    net = _load_lc_checkpoint(args.lc_checkpoint)
    net.dec_conn.plastic = True
    ds = load_split(cfg, "train", args.data_dir)
    stimuli = datamod.filter_classes(ds, [cfg.stimulus_class])
    monitors.write_pgm(
        run_dir / "decoder_weights_initial.pgm",
        monitors.dense_map_image(net.dec_conn, cfg.w_min, cfg.w_max),
    )
    # task 1 rewards group 1; after the swap the rewarded response is group 0
    target_for = lambda i: 1 if i < cfg.swap_at else 0
    metrics = train_decoder(
        net, stimuli, cfg.conditioning_iters, schedule_from_config(cfg),
        reward_state_from_config(cfg), cfg.seed, target_for=target_for,
        window=cfg.metrics_window,
    )
    metrics.write_metrics_csv(run_dir / "metrics.csv")
    metrics.write_rates_csv(run_dir / "rates.csv")
    monitors.write_pgm(
        run_dir / "decoder_weights_final.pgm",
        monitors.dense_map_image(net.dec_conn, cfg.w_min, cfg.w_max),
    )
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

    run_dir = make_run_dir(cfg, "xor")
    root = data_root(cfg, args.data_dir)
    train_src = datamod.load_mnist_split(root, "train")
    test_src = datamod.load_mnist_split(root, "test")
    train = datamod.build_xor_mnist(train_src, cfg.xor_train, sample_rng(cfg.seed, STAGE_XOR, 0))
    test = datamod.build_xor_mnist(test_src, cfg.xor_test, sample_rng(cfg.seed, STAGE_XOR, 1))

    net, metrics, accuracy = run_pipeline(cfg, train, test)
    checkpoint_save(net, run_dir / "network.blcn")
    metrics.write_metrics_csv(run_dir / "metrics.csv")
    metrics.write_rates_csv(run_dir / "rates.csv")
    append_summary(cfg, "xor", run_dir, "test_accuracy", accuracy)
    print(f"xor: test accuracy {accuracy:.4f} -> {run_dir}")
    return EXIT_OK


def cmd_svm(cfg: RunConfig, args) -> int:
    run_dir = make_run_dir(cfg, "svm")
    net = _load_lc_checkpoint(args.lc_checkpoint)
    train = load_split(cfg, "train", args.data_dir)
    test = load_split(cfg, "test", args.data_dir)
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


def _sweep_run(payload) -> dict:
    """One full pipeline run (used directly and from worker processes)."""
    base_overrides, combo, seed, data_dir, out_dir = payload
    overrides = [f"{k}={v}" for k, v in combo.items()] + [f"seed={seed}", f"out_dir={out_dir}"]
    if data_dir:
        overrides.append(f"data_dir={data_dir}")
    cfg = resolve_config(None, [*base_overrides, *overrides])
    _, _, accuracy = run_pipeline(cfg, load_split(cfg, "train"), load_split(cfg, "test"))
    return {**combo, "seed": seed, "accuracy": accuracy}


def cmd_sweep(cfg: RunConfig, args) -> int:
    run_dir = make_run_dir(cfg, "sweep")
    grid: dict[str, list[str]] = {}
    for item in args.grid or []:
        if "=" not in item:
            raise ConfigError(item, "grid entries must look like key=v1,v2")
        key, values = item.split("=", 1)
        grid[key.strip()] = [v.strip() for v in values.split(",") if v.strip()]
    seeds = [int(s) for s in (args.seeds or str(cfg.seed)).split(",")]
    base_overrides = [o for o in (args.set or [])]
    combos = [dict(zip(grid.keys(), values)) for values in product(*grid.values())] or [{}]

    payloads = [
        (base_overrides, combo, seed, getattr(args, "data_dir", "") or cfg.data_dir, str(run_dir))
        for combo in combos
        for seed in seeds
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_run, payloads))
    else:
        results = [_sweep_run(p) for p in payloads]

    keys = list(grid.keys())
    with open(run_dir / "sweep_runs.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([*keys, "seed", "accuracy"])
        for r in results:
            writer.writerow([*(r[k] for k in keys), r["seed"], f"{r['accuracy']:.6f}"])
    with open(run_dir / "sweep_summary.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([*keys, "n_seeds", "mean_accuracy", "std_accuracy"])
        for combo in combos:
            accs = [r["accuracy"] for r in results if all(r[k] == combo[k] for k in keys)]
            mean = float(np.mean(accs))
            std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
            writer.writerow([*(combo[k] for k in keys), len(accs), f"{mean:.6f}", f"{std:.6f}"])
            print(f"sweep {combo or '(base)'}: {mean:.4f} +/- {std:.4f} over {len(accs)} seeds")
    print(f"sweep: {len(results)} runs -> {run_dir}")
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
