"""Every name the benchmark patches must resolve where it patches it.

bench/spans.py wraps public cdkd functions under the names their callers
look them up by; a renamed or inlined name there fails the benchmark run,
so it fails here first. The hooks are read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.STEP_HOOKS + spans.LAYER_HOOKS


@pytest.mark.parametrize("label, owner, attr", [h[:3] for h in _hooks()])
def test_hooked_name_resolves_to_a_callable(label, owner, attr):
    mod_name, _, cls_name = owner.partition(".")
    target = importlib.import_module(f"cdkd.{mod_name}")
    if cls_name:
        target = getattr(target, cls_name)
    assert callable(getattr(target, attr, None)), f"{label}: cdkd.{owner}.{attr}"
