import threading

import numpy as np
import pytest
from hypothesis import settings

from reinlab.adapter import ReinConfig
from reinlab.data import generate_benchmark
from reinlab.head import HeadConfig
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
