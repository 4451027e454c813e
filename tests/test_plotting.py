import re

import pytest

from cdkd.cli import main
from cdkd.plotting import CsvFormatError, read_metrics_csv, write_metrics_svg
from cdkd.train import CSV_COLUMNS

HEADER = ",".join(CSV_COLUMNS)


def _csv_rows(n):
    rows = [HEADER]
    for e in range(n):
        rows.append(f"{e},0.1,{1.0 - 0.1 * e},2.0,0.1,0.05,1.85,0.9,"
                    f"{50 - e},{55 - e},{20 - e},1.5")
    return "\n".join(rows) + "\n"


def test_svg_has_one_tick_per_epoch(tmp_path):
    csv = tmp_path / "m.csv"
    csv.write_text(_csv_rows(3))
    out = tmp_path / "m.svg"
    write_metrics_svg(csv, out)
    text = out.read_text()
    assert text.count('class="x-tick"') == 3 * 2      # three epochs, two panels
    assert text.count("<polyline") == 5 + 3           # loss panel + error panel
    assert "edt_weight" in text


def test_cli_plot_keeps_every_other_tick_past_25_epochs(tmp_path, capsys):
    csv, out = tmp_path / "m.csv", tmp_path / "m.svg"
    csv.write_text(_csv_rows(60))
    assert main(["plot", "--csv", str(csv), "--out", str(out)]) == 0
    ticks = re.findall(r'class="x-tick">.*?>(\d+)</text>', out.read_text())
    assert ticks == [str(e) for e in range(0, 60, 2)] * 2
    assert capsys.readouterr().out == f"wrote {out}\n"


def test_svg_bytes_deterministic(tmp_path):
    csv = tmp_path / "m.csv"
    csv.write_text(_csv_rows(4))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_metrics_svg(csv, a)
    write_metrics_svg(csv, b)
    assert a.read_bytes() == b.read_bytes()


def test_malformed_csv_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,metrics\n1,2,3\n")
    with pytest.raises(CsvFormatError, match="epoch"):
        read_metrics_csv(bad)
    bad.write_text(HEADER + "\n0,0.1,oops" + ",0" * 9 + "\n")
    with pytest.raises(CsvFormatError, match="bad value"):
        read_metrics_csv(bad)


def test_empty_csv_rejected(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    with pytest.raises(CsvFormatError, match="no data"):
        read_metrics_csv(empty)


def test_csv_without_plotted_columns_names_them(tmp_path, capsys):
    csv = tmp_path / "m.csv"
    csv.write_text("epoch,lr,loss_cd\n0,0.1,0.5\n")
    with pytest.raises(CsvFormatError, match=re.escape(f"{csv}: not a metrics CSV (no "
                                                       f"loss_total, loss_gkd, loss_ce,")):
        read_metrics_csv(csv)
    capsys.readouterr()
    assert main(["plot", "--csv", str(csv)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {csv}: ")
