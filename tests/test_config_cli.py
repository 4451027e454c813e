import pytest

from cdkd.cli import main
from cdkd.checkpoint import load_checkpoint, save_checkpoint
from cdkd.config import (ConfigError, build_config, load_config, parse_kv_text,
                         preset_sections, snapshot_text)

TINY_CONFIG = """
[model.teacher]
channels = 4,6
[model.student]
channels = 3,4
[data]
source = synthetic
classes = 4
per_class_train = 16
per_class_val = 8
image_size = 8
batch_size = 16
[optim]
lr0 = 0.05
momentum = 0.9
weight_decay = 0.0001
[schedule]
milestones = 50
factor = 0.1
[distill]
temperature = 4.0
alpha = 1.0
lambda = 0.5
n_decay = 2
gkd_enabled = true
[run]
epochs = 2
seed = 3
out_dir = {out}
"""


def write_config(tmp_path, out_dir):
    path = tmp_path / "run.conf"
    path.write_text(TINY_CONFIG.format(out=out_dir))
    return path


# -- parsing and presets ---------------------------------------------------------


def test_cifar_recipe_preset_values():
    cfg = build_config(preset_sections("cifar-recipe"))
    assert cfg.schedule.milestones == (60, 120, 160)
    assert cfg.schedule.factor == pytest.approx(0.2)
    assert cfg.optim.weight_decay == pytest.approx(5e-4)
    assert cfg.run.epochs == 200
    assert cfg.data.batch_size == 128


def test_imagenet_recipe_preset_values():
    cfg = build_config(preset_sections("imagenet-recipe"))
    assert cfg.optim.weight_decay == pytest.approx(1e-4)
    assert cfg.optim.momentum == pytest.approx(0.9)
    assert cfg.schedule.milestones == (30, 60, 90)
    assert cfg.data.batch_size == 256


def test_unknown_key_is_named_with_line():
    text = "[optim]\nlearning_rat = 0.1\n"
    with pytest.raises(ConfigError, match=r"learning_rat"):
        parse_kv_text(text)
    with pytest.raises(ConfigError, match=r":2"):
        parse_kv_text(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_kv_text("[optimizer]\nlr0 = 0.1\n")


def test_type_violation_is_diagnosed():
    for text, where in (("[optim]\nlr0 = fast\n", "<t>:2: cannot parse lr0"),
                        ("[model.student]\nchannels = 4,8,16\ndownsample = 0,yes,1\n",
                         "<t>:3: cannot parse downsample")):
        with pytest.raises(ConfigError, match=where):
            parse_kv_text(text, origin="<t>")


@pytest.mark.parametrize("overlay, key", [
    ("[data]\nbatch_size = 0", "batch_size"),
    ("[data]\nper_class_train = 0", "per_class_train"),
    ("[data]\nper_class_val = 0", "per_class_val"),
    ("[data]\npad = -1", "pad"),
    ("[data]\nhflip_prob = 1.5", "hflip_prob"),
    ("[model.student]\nchannels = 3,4,6\n[data]\nimage_size = 6",   # 2 taps: needs 4 | 6
     "image_size"),
])
def test_data_values_are_validated_on_load(tmp_path, overlay, key):
    path = tmp_path / "c.conf"
    path.write_text(TINY_CONFIG.format(out=tmp_path) + "\n" + overlay + "\n")
    with pytest.raises(ConfigError, match=rf"\[data\] {key} must be"):
        load_config(path=path)


def test_missing_required_section():
    with pytest.raises(ConfigError, match=r"\[run\]"):
        build_config(parse_kv_text("[data]\nsource = synthetic\n[optim]\nlr0 = 0.1\n"
                                   "[schedule]\nfactor = 0.1\n"))


def test_n_decay_defaults_to_first_milestone(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text(TINY_CONFIG.format(out=tmp_path).replace("n_decay = 2\n", ""))
    cfg = load_config(path=path)
    assert cfg.edt_params().n_decay == 50


def test_edt_stepwise_flag_reaches_schedule(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text(TINY_CONFIG.format(out=tmp_path) + "\n[distill]\nedt_stepwise = true\n")
    cfg = load_config(path=path)
    assert cfg.edt_params().stepwise is True


def test_config_file_overrides_preset(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("[optim]\nlr0 = 0.007\n[run]\nepochs = 3\n")
    cfg = load_config(path=path, preset="cifar-recipe")
    assert cfg.optim.lr0 == pytest.approx(0.007)          # overridden
    assert cfg.optim.weight_decay == pytest.approx(5e-4)  # preset survives
    assert cfg.run.epochs == 3


def test_real_cifar100_when_available():
    import os
    path = os.environ.get("CIFAR100_TRAIN_BIN")
    if not path:
        pytest.skip("set CIFAR100_TRAIN_BIN to the real train.bin to enable")
    ds = load_cifar_binary_for_test(path)
    assert len(ds) == 50000 and ds.class_count == 100


def load_cifar_binary_for_test(path):
    from cdkd.data import load_cifar_binary
    return load_cifar_binary(path, "cifar100-fine")


def test_canonical_snapshot_round_trips(tmp_path):
    path = write_config(tmp_path, tmp_path / "out")
    cfg = load_config(path=path)
    text = snapshot_text(cfg._sections)
    assert parse_kv_text(text) == cfg._sections


def test_seed_and_out_dir_overrides(tmp_path):
    path = write_config(tmp_path, tmp_path / "out")
    cfg = load_config(path=path, seed=99, out_dir=str(tmp_path / "elsewhere"))
    assert cfg.run.seed == 99
    assert cfg.run.out_dir.endswith("elsewhere")


# -- CLI ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One tiny teacher + distill pair through the real CLI."""
    root = tmp_path_factory.mktemp("cli")
    teacher_out = root / "teacher"
    conf = root / "run.conf"
    conf.write_text(TINY_CONFIG.format(out=teacher_out))
    assert main(["train-teacher", "--config", str(conf)]) == 0
    student_out = root / "student"
    code = main(["distill", "--config", str(conf),
                 "--teacher-ckpt", str(teacher_out / "final.ckpt"),
                 "--out-dir", str(student_out)])
    assert code == 0
    return conf, teacher_out, student_out


def test_cli_writes_all_artifacts_inside_out_dir(cli_run):
    _, teacher_out, student_out = cli_run
    for out in (teacher_out, student_out):
        for name in ("config.txt", "metrics.csv", "final.ckpt", "best.ckpt",
                     "last.ckpt"):
            assert (out / name).exists(), name


def test_cli_eval_runs_on_checkpoint(cli_run, capsys):
    conf, teacher_out, _ = cli_run
    assert main(["eval", "--config", str(conf),
                 "--ckpt", str(teacher_out / "final.ckpt")]) == 0
    out = capsys.readouterr().out
    assert "top-1 error" in out and "top-5 error" in out


def test_cli_plot_emits_svg_with_per_epoch_ticks(cli_run, tmp_path):
    _, teacher_out, _ = cli_run
    svg = tmp_path / "chart.svg"
    assert main(["plot", "--csv", str(teacher_out / "metrics.csv"),
                 "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count('class="x-tick"') == 2 * 2   # 2 epochs x 2 panels
    assert "<svg" in text and "edt_weight" in text


def test_cli_gradcheck_exit_zero():
    assert main(["gradcheck", "--grad-cases", "2", "--value-cases", "3"]) == 0


def test_cli_distill_is_byte_deterministic(cli_run, tmp_path):
    conf, teacher_out, student_out = cli_run
    rerun = tmp_path / "rerun"
    assert main(["distill", "--config", str(conf),
                 "--teacher-ckpt", str(teacher_out / "final.ckpt"),
                 "--out-dir", str(rerun)]) == 0

    def rows_no_wall(p):
        return [",".join(l.split(",")[:-1])
                for l in (p / "metrics.csv").read_text().strip().split("\n")]

    assert rows_no_wall(rerun) == rows_no_wall(student_out)
    assert (rerun / "final.ckpt").read_bytes() == \
        (student_out / "final.ckpt").read_bytes()


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    assert main(["eval", "--config", str(tmp_path / "missing.conf"),
                 "--ckpt", "nope.ckpt"]) == 2
    bad = tmp_path / "bad.conf"
    bad.write_text("[optim]\nlearning_rat = 0.1\n")
    assert main(["train-teacher", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "learning_rat" in err


def test_cli_eval_on_incomplete_checkpoint_is_one_error_line(cli_run, tmp_path, capsys):
    conf, teacher_out, _ = cli_run
    header, tensors = load_checkpoint(teacher_out / "final.ckpt")
    no_arch = header.replace("[arch.model]", "[arch.other]")
    short_table = dict(tensors)
    short_table.pop("fc.b")
    for name, head, table in (("no-arch.ckpt", no_arch, tensors),
                              ("no-fc-b.ckpt", header, short_table)):
        path = tmp_path / name
        save_checkpoint(path, head, table)     # CRC-valid, contents incomplete
        capsys.readouterr()
        assert main(["eval", "--config", str(conf), "--ckpt", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
