"""The benchmark in ``perfbench/`` finds reinlab's functions by name; a
rename must fail here, not only when the benchmark runs."""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("mode", ["full", "freeze", "rein"])
def test_program_forward_matches_the_reference(mode):
    # the benchmark's eval set-up noises every tensor the same way, so W_f,
    # the biases and the query fusion all take part; the reference computes
    # every layer's queries from its own tokens, in float64
    from reinlab.train import build_model, desk_config

    cfg = replace(desk_config(mode=mode), pretrain=None)
    model = build_model(cfg)
    rng = np.random.default_rng(7)
    for name, t, _ in model.named_tensors():
        noise = rng.standard_normal(t.shape)
        if t.ndim == 2:  # x @ W weights: unit gain over the fan-in
            t.data[...] = noise / np.sqrt(t.shape[0])
        else:
            t.data[...] = (1.0 if name.endswith(".g") else 0.0) + 0.1 * noise
    images = rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
    got = model.forward_rows(images).data.astype(np.float64)
    tensors = {name: (t.data, comp) for name, t, comp in model.named_tensors()}
    want = _load("reference").forward_logits(tensors, cfg.to_dict(), images)
    want = want.reshape(got.shape)
    err = np.abs(got - want).max() / max(1.0, np.abs(want).max())
    assert err <= 2e-5
