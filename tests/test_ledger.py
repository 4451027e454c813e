import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "ledger.py"
_spec = importlib.util.spec_from_file_location("ledger", _TOOL)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

OLD = """# a comment
python = 3.11.7
blas_core = SkylakeX
teacher aaa 111
CD-0 bbb 222
CD-1 ccc 333
"""


def test_changes_names_each_moved_digest_then_counts_them():
    new = OLD.replace("111", "119").replace("ccc 333", "ccd 339")
    assert ledger.changes(OLD, new) == ["teacher: final.ckpt", "CD-1: metrics.csv, final.ckpt",
                                        "2 final.ckpt, 1 metrics.csv"]


def test_changes_of_an_unchanged_ledger_is_only_the_counts():
    assert ledger.changes(OLD, OLD) == ["0 final.ckpt, 0 metrics.csv"]


def test_changes_names_fingerprint_keys_and_runs_only_one_ledger_has():
    new = OLD.replace("SkylakeX", "Haswell").replace("CD-0 bbb 222\n", "") + "CD-2 ddd 444\n"
    assert ledger.changes(OLD, new) == ["blas_core: SkylakeX -> Haswell",
                                        "CD-0: metrics.csv, final.ckpt",
                                        "CD-2: metrics.csv, final.ckpt",
                                        "2 final.ckpt, 2 metrics.csv"]
    assert ledger.changes("", new)[-1] == "3 final.ckpt, 3 metrics.csv"
