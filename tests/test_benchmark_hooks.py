"""The benchmark in ``perfbench/`` finds reinlab's functions by name; a
rename must fail here, not only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("span,module,attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_names_resolve(span, module, attr):
    mod = importlib.import_module("reinlab." + module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the class's own attribute, not an inherited one
        assert meth in vars(getattr(mod, cls_name)), (span, attr)
    else:
        assert callable(getattr(mod, attr)), (span, attr)


def test_pretrain_memo_can_be_cleared():
    from reinlab import pretrain

    assert callable(pretrain._cached.cache_clear)
