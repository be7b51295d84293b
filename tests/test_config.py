import pytest

from lcsnn.config import ConfigError, config_to_text, resolve_config


def test_empty_file_yields_published_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = resolve_config(path)
    assert cfg.u_thr0 == -52.0
    assert cfg.u_rest == -65.0 and cfg.u_reset == -65.0
    assert cfg.g0 == 0.05
    assert cfg.tau_g == 1.0e6
    assert cfg.delta_t_ref == 5.0
    assert cfg.tau_m == 20.0
    assert cfg.f_max == 128.0
    assert cfg.h_in == 22 and cfg.w_in == 22
    assert (cfg.n_out, cfg.ch_lc, cfg.k, cfg.s) == (1000, 100, 15, 4)  # grid winners
    assert (cfg.t_adapt, cfg.t_dec, cfg.t_learn) == (256, 256, 256)
    assert (cfg.stdp_eta_pre, cfg.stdp_eta_post) == (0.0001, 0.01)
    assert (cfg.rstdp_eta_pre, cfg.rstdp_eta_post) == (0.1, 0.1)
    assert cfg.gamma == 1.0
    assert cfg.eta_rpe == 0.125 and cfg.reward_mode == "td"
    assert cfg.alpha == 0.9
    assert cfg.w_inh == -100.0
    assert cfg.c_norm == 0.25
    assert cfg.lc_samples == 2000 and cfg.decoder_samples == 10000


def test_file_parsing_with_comments_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment setup\n"
        "ch_lc = 25\n"
        "k = 13   # small filters\n"
        "s = 3\n"
        "\n"
        "classes = 0,1\n"
        "dec_within_group_inhibition = true\n"
    )
    cfg = resolve_config(path, ["s=4", "seed=7"])
    assert cfg.ch_lc == 25
    assert cfg.k == 13
    assert cfg.s == 4  # override beats the file
    assert cfg.seed == 7
    assert cfg.class_list() == [0, 1]
    assert cfg.dec_within_group_inhibition is True


def test_invalid_kernel_names_the_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("k = 50\n")
    with pytest.raises(ConfigError) as err:
        resolve_config(path)
    assert err.value.key == "k"


def test_eta_rpe_static_selects_static_mode():
    cfg = resolve_config(None, ["eta_rpe=static"])
    assert cfg.reward_mode == "static"
    cfg2 = resolve_config(None, ["eta_rpe=0.175"])
    assert cfg2.reward_mode == "td" and cfg2.eta_rpe == 0.175


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery_knob = 3\n")
    with pytest.raises(ConfigError) as err:
        resolve_config(path)
    assert err.value.key == "mystery_knob"
    with pytest.raises(ConfigError):
        resolve_config(None, ["nope=1"])
    with pytest.raises(ConfigError):
        resolve_config(None, ["just-a-token"])


def test_unparseable_value_names_the_key():
    with pytest.raises(ConfigError) as err:
        resolve_config(None, ["n_out=many"])
    assert err.value.key == "n_out"
    with pytest.raises(ConfigError) as err:
        resolve_config(None, ["lc_adaptive=maybe"])
    assert err.value.key == "lc_adaptive"


@pytest.mark.parametrize(
    "override,key",
    [
        ("seed=-1", "seed"),
        ("n_c=7", "n_c"),               # 7 does not divide n_out = 1000
        ("f_max=2000", "f_max"),
        ("w_inh=5", "w_inh"),
        ("c_norm=2", "c_norm"),
        ("alpha=1.5", "alpha"),
        ("reward_mode=sometimes", "reward_mode"),
        ("tau_m=0", "tau_m"),
        ("u_reset=-10", "u_reset"),
        ("classes=a,b", "classes"),
        ("stdp_eta_pre=-1", "stdp_eta_pre"),
        ("stdp_eta_post=-0.5", "stdp_eta_post"),
        ("rstdp_eta_pre=-1", "rstdp_eta_pre"),
        ("rstdp_eta_post=-0.5", "rstdp_eta_post"),
        ("intensity_max=0", "intensity_max"),
        ("n_out=0", "n_out"),
        ("lc_samples=-5", "lc_samples"),
        ("decoder_samples=-1", "decoder_samples"),
        ("eval_samples=-3", "eval_samples"),
        ("svm_train_samples=-1", "svm_train_samples"),
        ("svm_test_samples=-1", "svm_test_samples"),
        ("conditioning_iters=-2", "conditioning_iters"),
        ("swap_at=-1", "swap_at"),
        ("xor_train=-4", "xor_train"),
        ("xor_test=-4", "xor_test"),
        ("svm_epochs=0", "svm_epochs"),
        ("svm_l2=0", "svm_l2"),
    ],
)
def test_invariant_violations_name_their_key(override, key):
    with pytest.raises(ConfigError) as err:
        resolve_config(None, [override])
    assert err.value.key == key


def test_echo_round_trip(tmp_path):
    cfg = resolve_config(None, ["seed=11", "ch_lc=25", "eta_rpe=static", "classes=3,5"])
    path = tmp_path / "echo.cfg"
    path.write_text(config_to_text(cfg))
    back = resolve_config(path)
    assert back == cfg
