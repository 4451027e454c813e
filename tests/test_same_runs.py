import importlib.util
import shutil
from pathlib import Path

import pytest

from cdkd.checkpoint import load_checkpoint, save_checkpoint
from cdkd.optim import LrSchedule, SgdConfig
from cdkd.train import CSV_COLUMNS, train_teacher

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_runs.py"
_spec = importlib.util.spec_from_file_location("same_runs", _TOOL)
same_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_runs)

SGD = SgdConfig(lr0=0.05, momentum=0.9, weight_decay=1e-4)
SCHED = LrSchedule(milestones=(50,), factor=0.1)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory, tiny_data, tiny_specs):
    """Two trees, each holding a run/ of the same seed and a seed-1/ of another."""
    train, val = tiny_data
    root = tmp_path_factory.mktemp("same-runs")
    for tree in ("a", "b"):
        for sub, seed in (("run", 0), ("seed-1", 1)):
            train_teacher(tiny_specs[1], train, val, SGD, SCHED, epochs=2, seed=seed,
                          out_dir=root / tree / sub, batch_size=32)
    return root / "a", root / "b"


def edit_cell(csv: Path, line: int, column: str, value: str) -> str:
    rows = [r.split(",") for r in csv.read_text().splitlines()]
    row, col = rows[line - 1], CSV_COLUMNS.index(column)
    old, row[col] = row[col], value
    csv.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return old


def test_same_seed_runs_match_whatever_their_wall_time(two_runs, tmp_path, capsys):
    a, b = two_runs
    copy = shutil.copytree(b, tmp_path / "b")
    edit_cell(copy / "run" / "metrics.csv", 2, "wall_seconds", "123.5")
    assert same_runs.main([str(a), str(copy)]) == 0
    assert capsys.readouterr().out == "same runs: 8 files match\n"


def test_an_edited_cell_and_a_one_sided_file_are_one_line_each(two_runs, tmp_path, capsys):
    a, b = two_runs
    copy = shutil.copytree(b, tmp_path / "b")
    old = edit_cell(copy / "run" / "metrics.csv", 3, "val_top1", "1.5")
    (copy / "seed-1" / "best.ckpt").unlink()
    assert same_runs.main([str(a), str(copy)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"run/metrics.csv: line 3 column val_top1: {old} != 1.5",
        f"seed-1/best.ckpt: only in {a}"]


def test_a_checkpoint_names_the_first_header_section_that_differs(two_runs, tmp_path,
                                                                  capsys):
    a, b = two_runs
    other = tmp_path / "other"
    shutil.copytree(b / "seed-1", other / "run")
    assert same_runs.main([str(a / "run"), str(other / "run")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and out[0].startswith("best.ckpt: header [state] seed: 0 != 1")
    assert out[3].startswith("metrics.csv: line 2 column ")


def test_a_header_edit_names_every_key_and_whether_the_tensors_kept(two_runs, tmp_path,
                                                                   capsys):
    """A checkpoint whose header differs in two keys of two sections, with
    every tensor kept, names both keys and says the tensors are equal."""
    a, b = two_runs
    copy = shutil.copytree(b / "run", tmp_path / "run")
    header, tensors = load_checkpoint(copy / "final.ckpt")
    edited = header.replace("input_channels = 3\n", "").replace("lr0 = 0.05", "lr0 = 0.5")
    save_checkpoint(copy / "final.ckpt", edited, tensors)
    assert same_runs.main([str(a / "run"), str(copy)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "final.ckpt: header [arch.model] input_channels: 3 != (none); "
        "header [optim] lr0: 0.05 != 0.5; tensors equal"]


def test_a_tree_with_no_run_files_is_refused(two_runs, tmp_path, capsys):
    assert same_runs.main([str(two_runs[0]), str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no metrics.csv or *.ckpt under {tmp_path}\n"
