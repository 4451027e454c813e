import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdkd.cli import main
from cdkd.checkpoint import load_checkpoint, save_checkpoint
from cdkd.config import (PRESETS, SCHEMA, ConfigError, build_config, load_config,
                         merge_sections, parse_kv_text, preset_sections, snapshot_text)
from cdkd.kvtext import format_value
from cdkd.models import NetworkSpec, build_network
from cdkd.train import CSV_COLUMNS, RECORDS

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


def overlaid(text, overlay):
    """One config file's text: ``text`` with each key of ``overlay`` set over
    it, since a file that sets a key twice in one section is refused."""
    return snapshot_text(merge_sections(parse_kv_text(text), parse_kv_text(overlay)))


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


def test_unknown_key_is_named_with_line(tmp_path):
    text = "[optim]\nlearning_rat = 0.1\n"
    with pytest.raises(ConfigError, match=r"learning_rat"):
        parse_kv_text(text)
    with pytest.raises(ConfigError, match=r":2"):
        parse_kv_text(text)
    # a stage is one residual block, so the key that set a count per stage is unknown
    conf = tmp_path / "blocks.conf"
    conf.write_text("[model.student]\nchannels = 4,8,16\nblocks = 1,1,1\n")
    why = f"{conf}:3: unknown key 'blocks' in [model.student]"
    with pytest.raises(ConfigError, match=f"^{re.escape(why)}$"):
        load_config(path=conf)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_kv_text("[optimizer]\nlr0 = 0.1\n")


def test_type_violation_is_diagnosed():
    for text, where in (("[optim]\nlr0 = fast\n", "<t>:2: cannot parse lr0"),
                        ("[model.student]\nchannels = 4,x\n",
                         "<t>:2: cannot parse channels = '4,x'"),
                        ("[model.student]\nchannels = 4,,8\n",
                         "<t>:2: cannot parse channels = '4,,8': empty item"),
                        ("[schedule]\nfactor = 0.1\nmilestones = 30,\n",
                         "<t>:3: cannot parse milestones = '30,': empty item")):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_kv_text(text, origin="<t>")
    assert parse_kv_text("[schedule]\nmilestones = \n")["schedule"]["milestones"] == ()


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
    path.write_text(overlaid(TINY_CONFIG.format(out=tmp_path), overlay))
    with pytest.raises(ConfigError, match=rf"\[data\] {key} must be"):
        load_config(path=path)


@pytest.mark.parametrize("overlay, section", [
    ("[optim]\nmomentum = 1.5", "optim"),
    ("[schedule]\nfactor = 1.5", "schedule"),
    ("[schedule]\nmilestones = 5,3", "schedule"),
    ("[distill]\ntemperature = 0", "distill"),
    ("[model.student]\nchannels = 4", "model.student"),
    ("[run]\nepochs = -3", "run"),
    ("[schedule]\nmilestones = -5,3", "schedule"),
    ("[data]\nclasses = 1", "data"),
    ("[optim]\nlr0 = nan", "optim"),
    ("[optim]\nlr0 = inf", "optim"),
    ("[distill]\ntemperature = nan", "distill"),
    ("[distill]\nalpha = nan", "distill"),
    ("[distill]\nalpha = inf", "distill"),
])
def test_refused_values_name_file_and_section(tmp_path, capsys, overlay, section):
    path = tmp_path / "c.conf"
    path.write_text(overlaid(TINY_CONFIG.format(out=tmp_path / "out"), overlay))
    assert main(["train-teacher", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: [{section}] ")


def test_refusal_in_a_preset_names_the_preset(monkeypatch):
    broken = PRESETS["cifar-recipe"].replace("epochs = 200", "epochs = 0")
    monkeypatch.setitem(PRESETS, "cifar-recipe", broken)
    with pytest.raises(ConfigError, match=re.escape("<preset:cifar-recipe>: [run] epochs "
                                                    "must be >= 1, got 0")):
        load_config(preset="cifar-recipe")


def test_readme_config_example_is_the_schema():
    """The README's ini block parses, and names every key the sections have."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    sections = parse_kv_text(block, origin="README.md")
    assert ({(sec, key) for sec, kvs in sections.items() for key in kvs}
            == {(sec, key) for sec, keys in SCHEMA.items() for key in keys})


def test_missing_required_section():
    with pytest.raises(ConfigError, match=r"\[run\]"):
        build_config(parse_kv_text("[data]\nsource = synthetic\n[optim]\nlr0 = 0.1\n"
                                   "[schedule]\nfactor = 0.1\n"))
    with pytest.raises(ConfigError, match=r"\[run\] is missing required key 'epochs'"):
        build_config(parse_kv_text(TINY_CONFIG.format(out="o").replace("epochs = 2\n", "")))


def test_n_decay_defaults_to_first_milestone(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text(TINY_CONFIG.format(out=tmp_path).replace("n_decay = 2\n", ""))
    cfg = load_config(path=path)
    assert cfg.distill.n_decay == 50


def test_a_key_set_twice_in_one_section_is_refused(tmp_path, cli_run, capsys):
    """A key set twice in one section, in one [optim] or in a repeated [run],
    is refused naming the file, the line and the key, not run on the last
    value; so is a checkpoint header that sets one twice."""
    text = TINY_CONFIG.format(out=tmp_path / "out")
    path = tmp_path / "twice.conf"
    for twice, again, sec in ((text.replace("lr0 = 0.05\n", "lr0 = 0.05\nlr0 = 0.5\n"),
                               "lr0 = 0.5", "optim"),
                              (text + "[run]\nseed = 4\n", "seed = 4", "run")):
        path.write_text(twice)
        line, key = twice.splitlines().index(again) + 1, again.split()[0]
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{line}: '{key}' is set "
                                                        f"twice in [{sec}]")):
            load_config(path=path)
    conf, teacher_out, _ = cli_run
    header, tensors = load_checkpoint(teacher_out / "final.ckpt")
    ckpt = tmp_path / "twice.ckpt"
    save_checkpoint(ckpt, header.replace("pad = 0\n", "pad = 0\npad = 2\n"), tensors)
    line = header.splitlines().index("pad = 0") + 2
    capsys.readouterr()
    assert main(["eval", "--config", str(conf), "--ckpt", str(ckpt)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {ckpt}:{line}: 'pad' is set twice in [data]"]


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
    assert main(["gradcheck"]) == 0


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


def test_cli_distill_records_the_resolved_n_decay_once(cli_run, tmp_path):
    """With no [distill] n_decay, cdkd distill decays over the first LR
    milestone: its header's [distill] records that n_decay, and no [edt]
    section repeats alpha, lambda and n_decay."""
    conf, teacher_out, _ = cli_run
    bare = tmp_path / "bare.conf"
    bare.write_text(conf.read_text().replace("n_decay = 2\n", ""))
    out = tmp_path / "out"
    assert main(["distill", "--config", str(bare), "--out-dir", str(out),
                 "--teacher-ckpt", str(teacher_out / "final.ckpt")]) == 0
    header, _ = load_checkpoint(out / "final.ckpt")
    assert "[distill]\ntemperature = 4\nalpha = 1\nlam = 0.5\nn_decay = 50\n" in header
    assert "[edt]" not in header and header.count("n_decay") == 1
    rows = [r.split(",") for r in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert [r[2] for r in rows] == [format_value(0.5 ** (e / 50)) for e in range(2)]


def test_readme_header_sections_are_the_ones_distill_writes(cli_run):
    """The README's table of header sections names, in order, the sections
    and records of a distill run's checkpoint header."""
    _, _, student_out = cli_run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"(?m)^\| `\[([\w.]+)\]` \| `(\w+)` \|", readme)
    header, _ = load_checkpoint(student_out / "final.ckpt")
    written = re.findall(r"(?m)^\[([\w.]+)\]$", header)
    assert [sec for sec, _ in rows] == written == list(RECORDS)
    assert [cls for _, cls in rows] == [cls.__name__ for cls in RECORDS.values()]


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    assert main(["eval", "--config", str(tmp_path / "missing.conf"),
                 "--ckpt", "nope.ckpt"]) == 2
    capsys.readouterr()
    assert main(["eval", "--preset", "cifar-recipe"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == ["error: eval needs --ckpt"]
    bad = tmp_path / "bad.conf"
    bad.write_text("[optim]\nlearning_rat = 0.1\n")
    assert main(["train-teacher", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "learning_rat" in err
    assert main(["train-teacher"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: no configuration given: pass --config and/or --preset"]
    text = TINY_CONFIG.format(out=tmp_path / "out")
    for argv, section, end in ((["train-teacher"], "model.teacher", "[model.student]"),
                               (["distill", "--teacher-ckpt", "t.ckpt"], "distill", "[run]")):
        cut = tmp_path / "cut.conf"
        cut.write_text(text[:text.index(f"[{section}]")] + text[text.index(end):])
        assert main(argv + ["--config", str(cut)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {cut}: missing [{section}] section"]
        assert not (tmp_path / "out").exists()


def test_cli_refuses_a_net_no_host_can_hold(tmp_path, capsys):
    """A [model.*] whose float32 parameters alone exceed the host's memory is
    one error line naming the file, the section and channels, refused before
    a parameter is allocated or the out-dir made."""
    text = TINY_CONFIG.format(out=tmp_path / "out")
    for argv, section in ((["train-teacher"], "model.teacher"),
                          (["distill", "--teacher-ckpt", "t.ckpt"], "model.student")):
        wide = tmp_path / "wide.conf"
        wide.write_text(overlaid(text, f"[{section}]\nchannels = 1000000000,2\n"))
        assert main(argv + ["--config", str(wide)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        want = f"error: {wide}: [{section}] channels = 1000000000,2 needs "
        assert len(err) == 1 and re.fullmatch(
            re.escape(want) + r"\d+ bytes of float32 parameters, more than the host has", err[0])
        assert not (tmp_path / "out").exists()


def test_cli_eval_on_incomplete_checkpoint_is_one_error_line(cli_run, tmp_path, capsys):
    """A checkpoint whose header lacks a section or field, or has a key its
    record has no field for (as one written while NetworkSpec had blocks,
    residual and downsample, [data] had random_crop and DistillConfig had
    plain_kd_fallback and kd_t_squared), or a section no record reads (as
    [edt] was), or a [state] no run writes (a negative epoch or global_step,
    a NaN best_val_top1), or stats that are not finite,
    stds of 0 or other than one mean and one std per input channel, or
    whose tensor table lacks a parameter, is one error line naming the
    file: not a divide-by-zero warning or an error rate over broadcast
    stats."""
    conf, teacher_out, student_out = cli_run
    header, tensors = load_checkpoint(teacher_out / "final.ckpt")
    no_arch = header.replace("[arch.model]", "[arch.other]")
    arch = "channels = 4,6\nnum_classes = 4\ninput_channels = 3\n"
    assert arch in header
    old_format = header.replace(arch, "stages = 1x4,1x6d\nnum_classes = 4\n")
    old_arch = header.replace(arch, "channels = 4,6\nnum_classes = 4\nblocks = 1,1\n"
                              "input_channels = 3\n")
    older_arch = header.replace(arch, "channels = 4,6\nnum_classes = 4\n"
                                "downsample = 0,1\ninput_channels = 3\nresidual = true\n")
    s_header, s_tensors = load_checkpoint(student_out / "final.ckpt")
    edt = "[edt]\nalpha = 1\nlam = 0.5\nn_decay = 2\n"
    assert "[edt]" not in s_header and "\n[teacher]" in s_header
    older_edt = s_header.replace("\n[teacher]", f"\n{edt}stepwise = false\n[teacher]")
    older_crop = s_header.replace("pad = 0\n", "pad = 0\nrandom_crop = false\n")
    gkd = "gkd_enabled = true\n"
    assert gkd in s_header
    older_kd, older_t2 = (s_header.replace(gkd, f"{gkd}{key} = false\n")
                          for key in ("plain_kd_fallback", "kd_t_squared"))
    no_data = re.sub(r"\[data\]\n[^[]*", "", header)   # as written before [data] existed
    assert no_data != header
    rows_data = re.sub(r"(?m)^crc = \d+$", "rows = 96", header)  # before [data] crc existed
    assert rows_data != header
    sub_seeds = re.sub(r"(?m)^seed = \d+$", "model_seed = 1\nshuffle_seed = 2\n"
                       "augment_seed = 3\nadapter_seed = 4", header)  # before [state] seed
    assert sub_seeds != header
    stats = re.compile(r"(?m)^means = .*\nstds = .*$")
    nan_means, zero_stds, one_mean, two_stds = (
        stats.sub(f"means = {m}\nstds = {s}", header)
        for m, s in (("nan,0,0", "1,1,1"), ("0,0,0", "0,0,0"), ("0.5", "0.25"),
                     ("0.5,0.5,0.5", "0.25,0.25")))
    neg_epoch, neg_step, nan_best = (re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", header)
                                     for key, value in (("epoch", -2), ("global_step", -1),
                                                        ("best_val_top1", "nan")))
    assert header not in (neg_epoch, neg_step, nan_best)
    counts = "[normalize] has {} means and {} stds, [arch.model] input_channels = 3".format
    bad_stats = "[normalize] stats must be finite, stds > 0: got {}".format
    short_table = dict(tensors)
    short_table.pop("fc.b")
    missing = "no {} in header or tensors".format
    for name, head, table, why in (
            ("no-arch.ckpt", no_arch, tensors, missing("'arch.model'")),
            ("old-format.ckpt", old_format, tensors, missing("'channels'")),
            ("no-data.ckpt", no_data, tensors, missing("'data'")),
            ("rows-data.ckpt", rows_data, tensors, missing("'crc'")),
            ("sub-seeds.ckpt", sub_seeds, tensors, missing("'seed'")),
            ("no-fc-b.ckpt", header, short_table, missing("'fc.b'")),
            ("old-arch.ckpt", old_arch, tensors, "[arch.model] unknown key 'blocks'"),
            ("older-arch.ckpt", older_arch, tensors, "[arch.model] unknown key 'downsample'"),
            ("older-edt.ckpt", older_edt, s_tensors, "unknown section [edt]"),
            ("older-crop.ckpt", older_crop, s_tensors, "[data] unknown key 'random_crop'"),
            ("older-kd.ckpt", older_kd, s_tensors, "[distill] unknown key 'plain_kd_fallback'"),
            ("older-t2.ckpt", older_t2, s_tensors, "[distill] unknown key 'kd_t_squared'"),
            ("nan-means.ckpt", nan_means, tensors,
             bad_stats("(nan, 0.0, 0.0), (1.0, 1.0, 1.0)")),
            ("zero-stds.ckpt", zero_stds, tensors,
             bad_stats("(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)")),
            ("one-mean.ckpt", one_mean, tensors, counts(1, 1)),
            ("two-stds.ckpt", two_stds, tensors, counts(3, 2)),
            ("neg-epoch.ckpt", neg_epoch, tensors, "[state] epoch must be >= 0, got -2"),
            ("neg-step.ckpt", neg_step, tensors, "[state] global_step must be >= 0, got -1"),
            ("nan-best.ckpt", nan_best, tensors, "[state] best_val_top1 must not be nan")):
        path = tmp_path / name
        save_checkpoint(path, head, table)     # CRC-valid, contents incomplete
        capsys.readouterr()
        assert main(["eval", "--config", str(conf), "--ckpt", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}: {why}"]


def test_cli_eval_refuses_an_image_size_the_checkpoint_cannot_halve(cli_run, tmp_path,
                                                                     capsys):
    """A 4-6-8 checkpoint halves twice, so it needs a multiple of 4: [data]
    image_size = 6 is one error line naming the config, the key and the
    checkpoint, before the forward pass."""
    conf, teacher_out, _ = cli_run
    header, _ = load_checkpoint(teacher_out / "final.ckpt")
    deeper = header.replace("channels = 4,6\n", "channels = 4,6,8\n")
    net = build_network(NetworkSpec(channels=(4, 6, 8), num_classes=4), seed=0)
    ckpt = tmp_path / "deeper.ckpt"
    save_checkpoint(ckpt, deeper, {n: p.data for n, p in net.parameters()})
    six = tmp_path / "six.conf"
    six.write_text(overlaid(conf.read_text(), "[data]\nimage_size = 6\n"))
    capsys.readouterr()
    assert main(["eval", "--config", str(six), "--ckpt", str(ckpt)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {six}: [data] image_size must be a positive multiple of 4 for {ckpt}, got 6"]
    assert main(["eval", "--config", str(conf), "--ckpt", str(ckpt)]) == 0


def test_cifar_net_too_deep_for_32x32_is_refused_before_any_file(cli_run, tmp_path, capsys):
    """CIFAR images are 32x32, so a 7-stage net, which halves 6 times, is
    refused by build_config and by cdkd eval before a file is written or a
    forward runs, naming the config, the model section or checkpoint, and 32x32."""
    conf, teacher_out, _ = cli_run
    data = tmp_path / "cifar.bin"
    data.write_bytes(bytes(4 * 3073))       # four black images of class 0
    cifar = tmp_path / "cifar.conf"
    cifar.write_text(overlaid(conf.read_text(), f"[data]\nsource = cifar10\npath = {data}\n"
                                                f"val_path = {data}\n"))
    deep = tmp_path / "deep.conf"
    deep.write_text(overlaid(cifar.read_text(), "[model.teacher]\nchannels = 4,4,4,4,4,4,4\n"))
    why = "[data] image_size must be a positive multiple of 64 for {}, got 32x32 cifar10 images"
    with pytest.raises(ConfigError, match=re.escape(f"{deep}: {why.format('[model.teacher]')}")):
        load_config(path=deep)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train-teacher", "--config", str(deep), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {deep}: {why.format('[model.teacher]')}"]
    assert not out.exists()
    header, _ = load_checkpoint(teacher_out / "final.ckpt")
    seven = "channels = 4,4,4,4,4,4,4\nnum_classes = 10\n"
    net = build_network(NetworkSpec(channels=(4,) * 7, num_classes=10), seed=0)
    ckpt = tmp_path / "deep.ckpt"
    save_checkpoint(ckpt, header.replace("channels = 4,6\nnum_classes = 4\n",
                                         seven), {n: p.data for n, p in net.parameters()})
    assert main(["eval", "--config", str(cifar), "--ckpt", str(ckpt)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {cifar}: {why.format(ckpt)}"]


def test_cli_eval_with_other_class_count_names_both_files(cli_run, tmp_path, capsys):
    conf, teacher_out, _ = cli_run
    five = tmp_path / "five.conf"
    five.write_text(overlaid(conf.read_text(), "[data]\nclasses = 5\n"))
    ckpt = teacher_out / "final.ckpt"
    assert main(["eval", "--config", str(five), "--ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {ckpt}: model has 4 classes, but {five} [data] has 5"]


def test_cli_resume_on_a_broken_tensor_table_is_one_error_line(cli_run, tmp_path, capsys):
    """A CRC-valid checkpoint with a misshapen adapter or no velocity for a
    parameter exits 2 with one line naming the file and the tensor."""
    conf, teacher_out, student_out = cli_run
    longer = tmp_path / "longer.conf"
    longer.write_text(overlaid(conf.read_text(), "[run]\nepochs = 3\n"))
    header, tensors = load_checkpoint(student_out / "last.ckpt")
    assert tensors["adapter0.w"].shape == (6, 4, 1, 1)
    cases = (("wide-adapter.ckpt", {**tensors, "adapter0.w": tensors["fc.w"]},
              f"tensor 'adapter0.w' has shape {tensors['fc.w'].shape}, "
              f"this run needs (6, 4, 1, 1)"),
             ("no-velocity.ckpt", {k: v for k, v in tensors.items() if k != "vel.fc.b"},
              "no 'vel.fc.b' in header or tensors"))
    for name, table, why in cases:
        path = tmp_path / name
        save_checkpoint(path, header, table)
        capsys.readouterr()
        assert main(["distill", "--config", str(longer), "--out-dir", str(tmp_path / "out"),
                     "--teacher-ckpt", str(teacher_out / "final.ckpt"),
                     "--resume", str(path)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {path}: {why}"]


def test_cli_eval_reads_only_the_val_split(cli_run, tmp_path, capsys):
    """cdkd eval builds the val split alone: a cifar10 config whose train file
    is missing evaluates a 10-class checkpoint on its val file."""
    conf, teacher_out, _ = cli_run
    header, _ = load_checkpoint(teacher_out / "final.ckpt")
    assert "num_classes = 4\n" in header
    net = build_network(NetworkSpec(channels=(4, 6), num_classes=10), seed=0)
    ckpt = tmp_path / "ten.ckpt"
    save_checkpoint(ckpt, header.replace("num_classes = 4\n", "num_classes = 10\n"),
                    {n: p.data for n, p in net.parameters()})
    val = tmp_path / "val.bin"
    rng = np.random.default_rng(0)
    val.write_bytes(b"".join(bytes([label]) + rng.integers(0, 256, 3072, np.uint8).tobytes()
                             for label in range(4)))
    cifar = tmp_path / "cifar.conf"
    cifar.write_text(overlaid(conf.read_text(), f"[data]\nsource = cifar10\n"
                                                f"path = {tmp_path / 'missing-train.bin'}\n"
                                                f"val_path = {val}\n"))
    capsys.readouterr()
    assert main(["eval", "--config", str(cifar), "--ckpt", str(ckpt)]) == 0
    assert "top-1 error" in capsys.readouterr().out


@pytest.mark.parametrize("split, key, value", [
    pytest.param("train", "per_class_train", 10**12, id="train"),
    pytest.param("val", "per_class_val", 10**12, id="val"),
    pytest.param("train", "per_class_train", 10**30, id="train-past-max-dimension"),
    pytest.param("val", "per_class_val", 10**30, id="val-past-max-dimension"),
    pytest.param("train", "per_class_train", 10**17, id="train-past-max-bytes"),
    pytest.param("train", "image_size", 4 * 10**20, id="templates-past-max-dimension")])
def test_cli_split_the_host_cannot_hold_is_one_error_line(tmp_path, capsys, split, key, value):
    """A synthetic split far beyond the address space (2.7 PiB), or past
    numpy's array size limits (too many rows, too many bytes, templates too
    wide), is refused before a sample is drawn, as one line naming the
    config, the split and the [data] keys that size it."""
    conf = write_config(tmp_path, tmp_path / "out")
    conf.write_text(overlaid(conf.read_text(), f"[data]\n{key} = {value}\n"))
    sizing = {"classes": 4, f"per_class_{split}": 16 if split == "train" else 8,
              "image_size": 8, key: value}
    capsys.readouterr()
    assert main(["train-teacher", "--config", str(conf)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {conf}: [data] the {split} split "
        f"({', '.join(f'{k} = {v}' for k, v in sizing.items())}) does not fit in memory"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["eval --ckpt", "[data] path"])
def test_cli_directory_path_is_one_error_line(tmp_path, capsys, where):
    folder = tmp_path / "a-folder"
    folder.mkdir()
    conf = write_config(tmp_path, tmp_path / "out")
    argv = ["eval", "--config", str(conf), "--ckpt", str(folder)]
    if where == "[data] path":
        conf.write_text(overlaid(conf.read_text(), f"[data]\nsource = cifar10\n"
                                                   f"path = {folder}\nval_path = {folder}\n"))
        argv = ["train-teacher", "--config", str(conf)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(folder) in err[0]


# -- fuzz: mutated config text and metrics CSV bytes --------------------------------

# pieces of the two grammars, and bytes that are not UTF-8
_PIECES = (b"[", b"]", b"=", b",", b"#", b"\n", b" ", b"-", b"0", b"1", b"2", b".", b"e",
           b"nan", b"inf", b"1e999", b"true", b"[run]", b"[data]", b"\xff", b"\x00", b'"')


@st.composite
def _mutated(draw, base: bytes) -> bytes:
    """``base`` with one to four spans replaced by grammar pieces or raw bytes."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 12))
        data[at:at + cut] = draw(st.one_of(st.sampled_from(_PIECES), st.binary(max_size=6)))
    return bytes(data)


_CONFIG = TINY_CONFIG.format(out="runs/fuzz").encode()
_CSV = ("\n".join([",".join(CSV_COLUMNS)] + [f"{e},0.1,{1 - 0.1 * e:.1f},2,0.1,0.05,1.85,0.9,"
                                              f"{50 - e},{55 - e},{20 - e},1.5"
                                              for e in range(3)]) + "\n").encode()
_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@example(raw=_CONFIG[:26] + b"\xff" + _CONFIG[27:])
@given(raw=_mutated(_CONFIG))
def test_fuzzed_config_loads_or_is_one_error_naming_the_file(tmp_path, raw):
    """load_config, which every run command calls first, either returns a
    config or raises one ConfigError line that names the file; it builds no
    dataset, so no size read from the text is ever allocated."""
    path = tmp_path / "fuzz.conf"
    path.write_bytes(raw)
    try:
        load_config(path=path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}:") and "\n" not in str(exc)


@_FUZZ
@example(raw=_CSV[:26] + b"\xff" + _CSV[27:])
@example(raw=_CSV + b"1" * 131_073 + b"\n")
@given(raw=_mutated(_CSV))
def test_fuzzed_metrics_csv_plots_or_is_one_error_naming_the_file(tmp_path, capsys, raw):
    """cdkd plot on any bytes exits 0 with no error, or 2 with one error line
    that names the CSV."""
    path = tmp_path / "fuzz.csv"
    path.write_bytes(raw)
    capsys.readouterr()
    code = main(["plot", "--csv", str(path), "--out", str(tmp_path / "fuzz.svg")])
    err = capsys.readouterr().err.splitlines()
    assert (code, err) == (0, []) or (code == 2 and len(err) == 1
                                      and err[0].startswith(f"error: {path}: "))
