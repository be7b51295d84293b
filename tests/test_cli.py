import numpy as np
import pytest

from lcsnn.cli import main
from lcsnn.data import write_idx_images, write_idx_labels
from tests.conftest import make_blob_dataset


@pytest.fixture
def fake_mnist_dir(tmp_path):
    """A miniature dataset in the standard IDX layout (28x28, 10 classes)."""
    root = tmp_path / "data"
    root.mkdir()
    train = make_blob_dataset(80, 28, 10, seed=1)
    test = make_blob_dataset(40, 28, 10, seed=2)
    write_idx_images(root / "train-images-idx3-ubyte", train.images)
    write_idx_labels(root / "train-labels-idx1-ubyte", train.labels)
    write_idx_images(root / "t10k-images-idx3-ubyte", test.images)
    write_idx_labels(root / "t10k-labels-idx1-ubyte", test.labels)
    return root


TINY = [
    "--set", "ch_lc=2", "--set", "k=11", "--set", "s=11",
    "--set", "n_out=4", "--set", "n_c=2", "--set", "classes=0,1",
    "--set", "t_adapt=8", "--set", "t_dec=8", "--set", "t_learn=8",
    "--set", "lc_samples=4", "--set", "decoder_samples=4", "--set", "eval_samples=4",
    "--set", "u_thr0=-60",
]


def _run(args):
    return main([str(a) for a in args])


def _only_run_dir(out, prefix):
    dirs = [d for d in out.iterdir() if d.is_dir() and d.name.startswith(prefix)]
    assert len(dirs) == 1
    return dirs[0]


def test_full_pipeline_through_the_cli(fake_mnist_dir, tmp_path):
    out = tmp_path / "runs"
    assert _run(["train-lc", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3, *TINY]) == 0
    lc_dir = _only_run_dir(out, "train-lc")
    assert (lc_dir / "config.txt").exists()
    assert (lc_dir / "network.blcn").exists()
    assert (lc_dir / "lc_convergence.csv").exists()
    assert (lc_dir / "lc_filters.pgm").read_bytes().startswith(b"P5\n")

    assert _run([
        "train-decoder", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3,
        "--lc-checkpoint", lc_dir / "network.blcn", *TINY,
    ]) == 0
    dec_dir = _only_run_dir(out, "train-decoder")
    metrics = (dec_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "sample_index,reward,modulation,running_accuracy,cumulative_accuracy"
    assert len(metrics) == 5  # header + one row per sample
    rates = (dec_dir / "rates.csv").read_text().splitlines()
    assert rates[0] == "sample_index,reward_rate,punishment_rate"
    for row in rates[1:]:
        _, rr, pr = row.split(",")
        assert float(rr) + float(pr) == pytest.approx(1.0)

    assert _run([
        "eval", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3,
        "--checkpoint", dec_dir / "network.blcn", *TINY,
    ]) == 0
    eval_dir = _only_run_dir(out, "eval")
    assert (eval_dir / "decisions.csv").exists()

    assert _run([
        "svm", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3,
        "--lc-checkpoint", lc_dir / "network.blcn", *TINY,
        "--set", "svm_train_samples=20", "--set", "svm_epochs=2",
    ]) == 0

    assert _run([
        "conditioning", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3,
        "--lc-checkpoint", lc_dir / "network.blcn", *TINY,
        "--set", "conditioning_iters=6", "--set", "swap_at=3",
    ]) == 0
    cond_dir = _only_run_dir(out, "conditioning")
    assert (cond_dir / "rates.csv").exists()
    assert (cond_dir / "decoder_weights_initial.pgm").exists()
    assert (cond_dir / "decoder_weights_final.pgm").exists()

    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "command,run_dir,seed,metric,value"
    assert len(summary) == 6  # five commands appended


def test_xor_command(fake_mnist_dir, tmp_path):
    out = tmp_path / "runs"
    code = _run([
        "xor", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 1,
        "--set", "h_in=40", "--set", "w_in=40", "--set", "ch_lc=2",
        "--set", "k=32", "--set", "s=4", "--set", "n_out=4", "--set", "n_c=2",
        "--set", "t_adapt=8", "--set", "t_dec=8", "--set", "t_learn=8",
        "--set", "lc_samples=2", "--set", "decoder_samples=2",
        "--set", "xor_train=8", "--set", "xor_test=8", "--set", "u_thr0=-60",
    ])
    assert code == 0
    assert (_only_run_dir(out, "xor") / "network.blcn").exists()


def test_sweep_command(fake_mnist_dir, tmp_path):
    out = tmp_path / "runs"
    code = _run([
        "sweep", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 1,
        *TINY, "--grid", "k=11", "--grid", "s=11", "--seeds", "1,2",
    ])
    assert code == 0
    sweep_dir = _only_run_dir(out, "sweep")
    runs = (sweep_dir / "sweep_runs.csv").read_text().splitlines()
    assert runs[0] == "k,s,seed,accuracy"
    assert len(runs) == 3  # two seeds
    summary = (sweep_dir / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "k,s,n_seeds,mean_accuracy,std_accuracy"
    assert len(summary) == 2


def test_missing_checkpoint_is_io_error(fake_mnist_dir, tmp_path):
    code = _run([
        "train-decoder", "--data-dir", fake_mnist_dir, "--out", tmp_path / "r",
        "--lc-checkpoint", tmp_path / "absent.blcn", *TINY,
    ])
    assert code == 2


def test_bad_config_is_validation_error(tmp_path):
    assert _run(["train-lc", "--out", tmp_path, "--set", "k=50"]) == 1


def test_missing_data_dir_is_validation_error(tmp_path, monkeypatch):
    monkeypatch.delenv("MNIST_DIR", raising=False)
    assert _run(["train-lc", "--out", tmp_path, *TINY]) == 1


def test_run_dir_collision_rejected(tmp_path, monkeypatch):
    import lcsnn.cli as cli
    from lcsnn.config import resolve_config

    monkeypatch.setattr(cli.time, "time", lambda: 1_000_000)
    cfg = resolve_config(None, [f"out_dir={tmp_path}"])
    cli.make_run_dir(cfg, "train-lc")
    with pytest.raises(FileExistsError):
        cli.make_run_dir(cfg, "train-lc")


def test_rerun_from_echoed_config_reproduces_csvs(fake_mnist_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(["train-lc", "--data-dir", fake_mnist_dir, "--out", out_a,
                 "--seed", 5, *TINY]) == 0
    dir_a = _only_run_dir(out_a, "train-lc")
    # replay from the echoed provenance config alone
    assert _run(["train-lc", "--config", dir_a / "config.txt",
                 "--data-dir", fake_mnist_dir, "--out", out_b]) == 0
    dir_b = _only_run_dir(out_b, "train-lc")
    assert (dir_a / "lc_convergence.csv").read_bytes() == (dir_b / "lc_convergence.csv").read_bytes()
    assert (dir_a / "network.blcn").read_bytes() == (dir_b / "network.blcn").read_bytes()


def test_sweep_summary_recomputable_from_runs(fake_mnist_dir, tmp_path):
    out = tmp_path / "runs"
    assert _run([
        "sweep", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 1,
        *TINY, "--grid", "k=11", "--seeds", "1,2,3",
    ]) == 0
    sweep_dir = _only_run_dir(out, "sweep")
    rows = (sweep_dir / "sweep_runs.csv").read_text().splitlines()[1:]
    accs = [float(r.split(",")[-1]) for r in rows]
    summary = (sweep_dir / "sweep_summary.csv").read_text().splitlines()[1]
    _, n_seeds, mean, std = summary.split(",")
    assert int(n_seeds) == 3
    assert float(mean) == pytest.approx(np.mean(accs), abs=1e-6)
    assert float(std) == pytest.approx(np.std(accs, ddof=1), abs=1e-6)


def test_untrained_lc_checkpoint_rejected(fake_mnist_dir, tmp_path, capsys):
    from lcsnn.engine import build_network, checkpoint_save

    net = build_network(h_in=22, w_in=22, ch_lc=2, k=11, s=11, n_out=4, n_c=2, seed=0)
    path = tmp_path / "fresh.blcn"
    checkpoint_save(net, path)  # train_lc never ran on it
    code = _run([
        "train-decoder", "--data-dir", fake_mnist_dir, "--out", tmp_path / "runs",
        "--lc-checkpoint", path, *TINY,
    ])
    assert code == 1
    assert "train-lc" in capsys.readouterr().err


def test_network_keys_must_match_the_checkpoint(fake_mnist_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    assert _run(["train-lc", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3,
                 *TINY]) == 0
    ckpt = _only_run_dir(out, "train-lc") / "network.blcn"
    capsys.readouterr()
    for command, flag in (("train-decoder", "--lc-checkpoint"), ("conditioning", "--lc-checkpoint"),
                          ("svm", "--lc-checkpoint"), ("eval", "--checkpoint")):
        assert _run([command, "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3,
                     flag, ckpt, *TINY, "--set", "n_out=8"]) == 1
        assert "layout" in capsys.readouterr().err
    assert _run(["eval", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3,
                 "--checkpoint", ckpt, *TINY, "--set", "tau_m=25"]) == 1
    assert "lc_neurons" in capsys.readouterr().err
    assert [d.name.split("-")[0] for d in out.iterdir() if d.is_dir()] == ["train"]


def test_dt_reaches_the_simulator(fake_mnist_dir, tmp_path):
    blobs = []
    for dt in ("1", "0.5"):
        out = tmp_path / f"dt{dt}"
        assert _run(["train-lc", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3,
                     *TINY, "--set", f"dt={dt}"]) == 0
        blobs.append((_only_run_dir(out, "train-lc") / "network.blcn").read_bytes())
    assert blobs[0] != blobs[1]


def test_convergence_log_closes_a_partial_window(fake_mnist_dir, tmp_path):
    out = tmp_path / "runs"  # 4 samples in the default 100-sample window
    assert _run(["train-lc", "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3,
                 *TINY]) == 0
    rows = (_only_run_dir(out, "train-lc") / "lc_convergence.csv").read_text().splitlines()
    assert rows[0] == "window_end_sample,weight_change_norm"
    assert len(rows) == 2
    end, norm = rows[1].split(",")
    assert end == "4"
    assert float(norm) > 0.0
    summary = (out / "summary.csv").read_text().splitlines()[1]
    assert summary.endswith(f",final_window_weight_change,{norm}")


def test_sweep_runs_take_the_config_file_and_every_flag(fake_mnist_dir, tmp_path, monkeypatch):
    import lcsnn.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda cfg, train, test: (seen.append(cfg), None, 0.5))
    path = tmp_path / "tiny.cfg"
    path.write_text("\n".join(TINY[1::2]) + "\n")
    assert _run(["sweep", "--config", path, "--eta-rpe", "static", "--data-dir", fake_mnist_dir,
                 "--out", tmp_path / "runs", "--grid", "s=4,11", "--seeds", "1"]) == 0
    assert [(c.ch_lc, c.lc_samples, c.reward_mode, c.s, c.seed) for c in seen] == [
        (2, 4, "static", 4, 1), (2, 4, "static", 11, 1),
    ]


@pytest.mark.parametrize(
    "command", ["train-lc", "train-decoder", "eval", "conditioning", "svm", "xor", "sweep"]
)
def test_rejected_inputs_leave_no_run_directory(command, fake_mnist_dir, tmp_path):
    trained = tmp_path / "trained"
    assert _run(["train-lc", "--data-dir", fake_mnist_dir, "--out", trained, "--seed", 3,
                 *TINY]) == 0
    ckpt = _only_run_dir(trained, "train-lc") / "network.blcn"
    flag = {"eval": "--checkpoint", "train-decoder": "--lc-checkpoint",
            "conditioning": "--lc-checkpoint", "svm": "--lc-checkpoint"}.get(command)
    empty = tmp_path / "empty"
    empty.mkdir()
    rejected = [["--data-dir", empty]]  # no dataset files
    if flag:
        rejected.append(["--data-dir", fake_mnist_dir, "--set", "n_out=8"])  # not the checkpoint's
    if command == "sweep":
        rejected.append(["--data-dir", fake_mnist_dir, "--grid", "k=11,50"])  # k=50 is too large
    out = tmp_path / "runs"
    for extra in rejected:
        args = [command, "--out", out, "--seed", 3, *TINY, *extra]
        assert _run([*args, flag, ckpt] if flag else args) != 0
        assert not out.exists()


def test_images_must_have_the_network_input_shape(fake_mnist_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    assert _run(["train-lc", "--data-dir", fake_mnist_dir, "--out", out, *TINY,
                 "--set", "w_in=20"]) == 1
    assert "w_in" in capsys.readouterr().err
    # the two-digit canvases are 40x40
    assert _run(["xor", "--data-dir", fake_mnist_dir, "--out", out, *TINY,
                 "--set", "xor_train=8", "--set", "xor_test=8"]) == 1
    assert "h_in" in capsys.readouterr().err
    assert not out.exists()


def test_classes_must_fit_the_decoder_groups(fake_mnist_dir, tmp_path, capsys):
    trained = tmp_path / "trained"
    assert _run(["train-lc", "--data-dir", fake_mnist_dir, "--out", trained, "--seed", 3,
                 *TINY]) == 0
    ckpt = _only_run_dir(trained, "train-lc") / "network.blcn"
    out = tmp_path / "runs"
    capsys.readouterr()
    for args in (["train-decoder", "--lc-checkpoint", ckpt], ["eval", "--checkpoint", ckpt],
                 ["sweep"]):
        assert _run([*args, "--data-dir", fake_mnist_dir, "--out", out, "--seed", 3, *TINY,
                     "--set", "classes=0,1,2"]) == 1
        assert "classes" in capsys.readouterr().err
    assert not out.exists()
