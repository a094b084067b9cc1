"""Every function the benchmark traces exists under the name it uses.

`perfbench/spans.py` resolves each `TARGETS` entry with a plain
``getattr`` (or, for "Class.method", the class ``__dict__``), so a
renamed or removed function would fail every traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module_name, attr, span",
                         [pytest.param(*t[:3], id=t[2]) for t in _targets()])
def test_span_target_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = getattr(owner, cls_name).__dict__[meth]
    else:
        target = getattr(owner, attr)
    assert callable(target), span
