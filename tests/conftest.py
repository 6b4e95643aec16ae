import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from reinlab.adapter import ReinConfig
from reinlab.data import generate_benchmark
from reinlab.head import HeadConfig
from reinlab.pretrain import PretrainConfig
from reinlab.train import TrainConfig
from reinlab.vit import ViTConfig


# deterministic example sequence, and no example database in the work tree
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a Python thread running. Only ``threading``
    threads count; BLAS keeps its own pool, which this does not see."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"test left {len(leaked)} thread(s) running: {leaked}")


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process running or exited but not
    waited for, naming its pid; the child is then killed and reaped, so the
    next test starts without it."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    running = [int(p) for task in Path("/proc/self/task").iterdir()
               for p in (task / "children").read_text().split()]
    for child in running:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    left = ([pid] if pid else []) + running
    pytest.fail(f"test left {len(left)} child process(es) unreaped: pids {left}")


@pytest.fixture(scope="session")
def tiny_benchmark(tmp_path_factory):
    """6-class 32px benchmark with a handful of scenes, shared per session."""
    root = tmp_path_factory.mktemp("bench32")
    generate_benchmark(root, k=6, size=32, counts=(8, 3, 3), seed=0)
    return root


def state_bytes(component) -> bytes:
    """Concatenated raw bytes of every tensor of a model component, for
    checking that weights did or did not change."""
    return b"".join(t.data.tobytes() for _, t in component.named_tensors())


def tiny_train_config(data_root, mode="rein", variant="rein-lora", **overrides):
    vit = ViTConfig(image_size=32, patch_size=8, depth=2, dim=32, heads=4)
    rein = ReinConfig.from_variant(variant, c=32, depth=2, m=6, r=2, c_prime=8)
    head = HeadConfig(num_classes=6, embed_dim=16, num_queries=6)
    base = dict(vit=vit, head=head, rein=rein, mode=mode, iterations=20,
                batch_size=2, eval_interval=10, loss_window=10,
                data_root=str(data_root), seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def mini_train_config(data_root, mode="rein", **overrides):
    """The smallest config that learns in seconds: 4 px patches, both
    learning rates 1e-3 and 1,000 iterations after a 300-step recipe. The
    recipe runs once per process."""
    vit = ViTConfig(image_size=32, patch_size=4, depth=2, dim=32, heads=4)
    rein = ReinConfig.from_variant("rein-lora", c=32, depth=2, m=8, r=4, c_prime=16)
    head = HeadConfig(num_classes=6, embed_dim=16, num_queries=8)
    base = dict(vit=vit, head=head, rein=rein, mode=mode, iterations=1000,
                batch_size=4, lr_backbone=1e-3, lr_head_and_rein=1e-3,
                eval_interval=1000, data_root=str(data_root), seed=1,
                pretrain=PretrainConfig(steps=300, seed=0))
    base.update(overrides)
    return TrainConfig(**base)


def _without(section, key):
    return {k: v for k, v in section.items() if k != key}


# (id, malformed form of a ``TrainConfig.to_dict`` dict, text the
# ConfigError must contain): an unknown key, a missing key and a section
# that is not an object, at the top level and inside a section; a negative
# seed; and every rule of how the sections fit
BAD_CONFIGS = [
    ("unknown-key", lambda d: {**d, "iteration": 5}, "config: unknown field 'iteration'"),
    ("unknown-vit-key", lambda d: {**d, "vit": {**_without(d["vit"], "depth"), "depht": 4}},
     "vit: unknown field 'depht'"),
    ("missing-key", lambda d: _without(d, "head"), "config: missing field 'head'"),
    ("missing-rein-key", lambda d: {**d, "rein": _without(d["rein"], "c")},
     "rein: missing field 'c'"),
    ("section-not-object", lambda d: {**d, "vit": [1]}, "vit: expected an object"),
    ("not-an-object", lambda d: [1], "config: expected an object"),
    # a value of the wrong JSON kind, which the dataclasses would let through
    ("string-depth", lambda d: {**d, "vit": {**d["vit"], "depth": "4"}},
     "vit: field 'depth' must be an integer, got '4'"),
    ("string-iterations", lambda d: {**d, "iterations": "5"},
     "config: field 'iterations' must be an integer, got '5'"),
    ("scalar-tap-layers", lambda d: {**d, "vit": {**d["vit"], "tap_layers": 4}},
     "vit: field 'tap_layers' must be a list of integers, got 4"),
    ("float-m", lambda d: {**d, "rein": {**d["rein"], "m": 2.5}},
     "rein: field 'm' must be an integer, got 2.5"),
    ("float-m-and-queries", lambda d: {**d, "rein": {**d["rein"], "m": 2.5},
                                       "head": {**d["head"], "num_queries": 2.5}},
     "head: field 'num_queries' must be an integer, got 2.5"),
    # only null or absence means "no section"; any other non-object raises
    ("pretrain-false", lambda d: {**d, "pretrain": False},
     "pretrain: expected an object, got bool"),
    ("pretrain-zero", lambda d: {**d, "pretrain": 0}, "pretrain: expected an object, got int"),
    ("pretrain-empty-string", lambda d: {**d, "pretrain": ""},
     "pretrain: expected an object, got str"),
    ("rein-empty-list", lambda d: {**d, "rein": []}, "rein: expected an object, got list"),
    ("rein-empty-object", lambda d: {**d, "rein": {}}, "rein: missing field 'c'"),
    # seeds are non-negative
    ("negative-seed", lambda d: {**d, "seed": -1}, "seed must be >= 0, got -1"),
    ("negative-backbone-seed", lambda d: {**d, "backbone_seed": -2},
     "backbone_seed must be >= 0, got -2"),
    ("negative-pretrain-seed", lambda d: {**d, "pretrain": {"steps": 0, "seed": -3}},
     "pretrain seed must be >= 0, got -3"),
    # sections that do not fit each other
    ("unknown-mode", lambda d: {**d, "mode": "adapt"}, "unknown mode 'adapt'"),
    ("rein-mode-without-rein", lambda d: {**d, "rein": None},
     "rein mode requires a rein config"),
    ("rein-c-not-vit-dim", lambda d: {**d, "rein": {**d["rein"], "c": 16}},
     "rein: c=16, depth=2 must equal vit dim=32, depth=2"),
    ("rein-depth-not-vit-depth", lambda d: {**d, "rein": {**d["rein"], "depth": 3}},
     "rein: c=32, depth=3 must equal vit dim=32, depth=2"),
    ("linked-queries-not-m", lambda d: {**d, "head": {**d["head"], "num_queries": 4}},
     "head: num_queries=4 must equal rein m=6 when queries are linked"),
    ("recipe-and-backbone-seed",
     lambda d: {**d, "pretrain": {"steps": 0, "seed": 0}, "backbone_seed": 4},
     "backbone_seed draws a random backbone"),
]


# What the acceptance tests print, gathered from their captured output so
# that a run without ``-s`` still shows one line per criterion.
_ACCEPTANCE_LINES = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py::" in report.nodeid:
        _ACCEPTANCE_LINES.extend(report.capstdout.splitlines())


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
