"""The benchmark in ``perfbench/`` finds reinlab's functions by name; a
rename must fail here, not only when the benchmark runs."""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load("tracing").TARGETS


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


@pytest.mark.parametrize("mode", ["full", "freeze", "rein"])
def test_reference_counts_the_trainable_parameters(mode):
    # the benchmark's independent count reads the stored config, so a field
    # it needs must survive ``to_dict``
    from reinlab.train import build_model, desk_config

    cfg = replace(desk_config(mode=mode), pretrain=None)
    want = _load("reference").trainable_params(cfg.to_dict())
    assert build_model(cfg).n_trainable() == want
