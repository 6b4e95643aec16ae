"""Harness: optimizer math, mode partitions, checkpoints, swapping, runs."""

import copy
import hashlib
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import BAD_CONFIGS, state_bytes, tiny_train_config
from reinlab import tensor as T
from reinlab.checkpoint import Checkpoint, swap_adapter
from reinlab.data import load_split, pixel_floats
from reinlab.errors import (ConfigError, ContractError, NumericError,
                            ParseError, ReinlabError, ShapeError)
from reinlab.head import confusion_matrix, iou_from_confusion
from reinlab.model import TRAINED
from reinlab.optim import AdamW
from reinlab.tensor import Tape, Tensor
from reinlab.train import (PROBE_TRAINED, EvalReport, TrainConfig, build_model,
                           desk_config, evaluate, evaluate_model, train)

# ---------------------------------------------------------------------------
# AdamW


def test_adamw_zero_grad_no_decay_is_noop():
    p = Tensor([1.5, -0.5], requires_grad=True)
    opt = AdamW([("p", p)], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.5, -0.5])


def test_adamw_first_step_moves_by_lr():
    # bias correction makes the first update lr * g / (|g| + eps)
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([1.0], dtype=np.float32)
    opt = AdamW([("p", p)], lr=0.1)
    opt.step()
    np.testing.assert_allclose(p.data, [0.9], atol=1e-6)


def test_adamw_pure_decay_path():
    p = Tensor([2.0], requires_grad=True)
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.1)
    opt.step()
    np.testing.assert_allclose(p.data, [2.0 * 0.99], atol=1e-7)


def test_adamw_nan_gradient_names_tensor():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([float("nan")], dtype=np.float32)
    opt = AdamW([("adapter.layer01.A", p)], lr=0.1)
    with pytest.raises(NumericError, match="adapter.layer01.A"):
        opt.step()


@pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
def test_adamw_inf_gradient_names_tensor(bad):
    p = Tensor([1.0, 2.0], requires_grad=True)
    p.grad = np.array([0.5, bad], dtype=np.float32)
    opt = AdamW([("head.W_cls", p)], lr=0.1)
    with pytest.raises(NumericError, match="head.W_cls"):
        opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


# ---------------------------------------------------------------------------
# gradient partition and frozen integrity


@pytest.mark.parametrize("mode,phase", [("rein", None), ("freeze", None),
                                        ("full", None), ("full", "probe")],
                         ids=["rein", "freeze", "full", "full-probe"])
def test_rein_mode_gradient_partition(tiny_benchmark, mode, phase):
    model = build_model(tiny_train_config(tiny_benchmark, mode=mode))
    trained = TRAINED[mode]
    if phase == "probe":
        trained = PROBE_TRAINED
        model.set_trained(trained)
    rng = np.random.default_rng(0)
    imgs = rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 6, (2, 32, 32))
    with Tape() as tape:
        tape.backward(model.batch_loss(imgs, labels))
    want = {n for n, _, c in model.named_tensors() if c in trained}
    assert want
    assert {n for n, t, _ in model.named_tensors() if t.requires_grad} == want
    assert {n for n, t, _ in model.named_tensors() if t.grad is not None} == want


# SHA-256 of every tensor's name, bytes and requires_grad flag at build, per
# (mode, variant, backbone_seed) of a recipe-less desk config at seed 3
_PINNED_DRAWS = {
    ("full", "rein-core", None): "9e16fe02acef32a8893fd73058207fbe7888f761815a9d1d72e5affb65ec9a72",
    ("full", "rein-core", 7): "f92e625f14665d9107477175235755f46559dc812a0663873d8961693d63f1d6",
    ("full", "rein-link", None): "9e16fe02acef32a8893fd73058207fbe7888f761815a9d1d72e5affb65ec9a72",
    ("full", "rein-link", 7): "f92e625f14665d9107477175235755f46559dc812a0663873d8961693d63f1d6",
    ("full", "rein-share", None): "9e16fe02acef32a8893fd73058207fbe7888f761815a9d1d72e5affb65ec9a72",
    ("full", "rein-share", 7): "f92e625f14665d9107477175235755f46559dc812a0663873d8961693d63f1d6",
    ("full", "rein-lora", None): "9e16fe02acef32a8893fd73058207fbe7888f761815a9d1d72e5affb65ec9a72",
    ("full", "rein-lora", 7): "f92e625f14665d9107477175235755f46559dc812a0663873d8961693d63f1d6",
    ("freeze", "rein-core", None): "8a84ff4a0c7f041a0dc97ad11d98806c185b0294b2d6340eba5bee7a10d3805a",
    ("freeze", "rein-core", 7): "cafbeef73dd9ddcae7e11fcee82ddfab064993ab0ce8949f589892415d653a1a",
    ("freeze", "rein-link", None): "8a84ff4a0c7f041a0dc97ad11d98806c185b0294b2d6340eba5bee7a10d3805a",
    ("freeze", "rein-link", 7): "cafbeef73dd9ddcae7e11fcee82ddfab064993ab0ce8949f589892415d653a1a",
    ("freeze", "rein-share", None): "8a84ff4a0c7f041a0dc97ad11d98806c185b0294b2d6340eba5bee7a10d3805a",
    ("freeze", "rein-share", 7): "cafbeef73dd9ddcae7e11fcee82ddfab064993ab0ce8949f589892415d653a1a",
    ("freeze", "rein-lora", None): "8a84ff4a0c7f041a0dc97ad11d98806c185b0294b2d6340eba5bee7a10d3805a",
    ("freeze", "rein-lora", 7): "cafbeef73dd9ddcae7e11fcee82ddfab064993ab0ce8949f589892415d653a1a",
    ("rein", "rein-core", None): "ea775e31fbd451c8e7a17165e62b0cd32e82306d0f98bda48885a5a00595b02b",
    ("rein", "rein-core", 7): "80bf701851391aeacbf2a07dc040286baa65cbffcdf8f022419ae49e2e0fb656",
    ("rein", "rein-link", None): "fde2fcc2807fca7e76a525237f76f81b3729bfe19e379998e50227c0527dc55f",
    ("rein", "rein-link", 7): "fe50a0678aed5e722fa4d0833e0e2a4806936ec5c2afcfb2f265cf8796f8b2a9",
    ("rein", "rein-share", None): "790bdaa16bfddb8a80644328a36df856e5e1f3bfb6c254144c29ed1390b8b81a",
    ("rein", "rein-share", 7): "0ebf2f00b883e677cb5a90c86314fbb649dee5eccd683a2743fcc2750d8a31c0",
    ("rein", "rein-lora", None): "72846a2a3069f350d5d0b8ef2458581822d335781ead1e16b6b8223c73e06c9e",
    ("rein", "rein-lora", 7): "b24f0c73378cf5bde75b61b9970c857e8b792965e2c2085795239bf2520c1472",
}


@pytest.mark.parametrize("mode,variant,backbone_seed", list(_PINNED_DRAWS))
def test_model_draws_are_pinned(mode, variant, backbone_seed):
    """Each component draws from its own fixed rng stream, so a refactor of
    how a model is built must leave these bytes alone. They are pure numpy
    draws with no BLAS; a numpy upgrade that changes its generators may
    legitimately move them, and then they are recorded anew."""
    cfg = desk_config(mode=mode, variant=variant, seed=3, pretrain=None,
                      backbone_seed=backbone_seed)
    digest = hashlib.sha256()
    for name, t, _ in build_model(cfg).named_tensors():
        digest.update(name.encode() + t.data.tobytes() + bytes([t.requires_grad]))
    assert digest.hexdigest() == _PINNED_DRAWS[mode, variant, backbone_seed]


def test_batch_loss_rejects_mismatched_batch_sizes():
    model = build_model(tiny_train_config(""))
    with pytest.raises(ContractError, match="batch size mismatch"):
        model.batch_loss(np.zeros((2, 3, 32, 32), dtype=np.float32),
                         np.zeros((3, 32, 32), dtype=np.int64))


def test_forward_leaves_the_adapter_unchanged():
    # the adapter keeps no state of a forward pass: the caller hands it the
    # tokens, so its attributes and tensors read the same afterwards
    model = build_model(tiny_train_config(""))
    adapter = model.adapter
    before = {k: copy.copy(v) for k, v in vars(adapter).items()}
    data = state_bytes(adapter)
    model.forward_rows(np.random.default_rng(0).uniform(0, 1, (2, 3, 32, 32)))
    assert vars(adapter) == before
    assert state_bytes(adapter) == data


@pytest.mark.parametrize("mode,variant,records", [
    ("rein", "rein-core", 94), ("rein", "rein-link", 102), ("rein", "rein-share", 102),
    ("rein", "rein-lora", 106), ("freeze", "rein-lora", 13), ("full", "rein-lora", 66),
], ids=["rein-core", "rein-link", "rein-share", "rein-lora", "freeze", "full"])
def test_desk_train_step_tape_records(mode, variant, records):
    # batch_loss records each op once; each T_i is computed once and feeds
    # both its layer's refinement and its query (a second A_i B_i product
    # for the queries would add 4 records to rein-lora)
    model = build_model(replace(desk_config(mode=mode, variant=variant), pretrain=None))
    rng = np.random.default_rng(0)
    images = rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
    with Tape() as tape:
        tape.backward(model.batch_loss(images, rng.integers(0, 6, (2, 64, 64))))
    assert len(tape) == records


def test_frozen_backbone_bytes_after_100_steps(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=100, eval_interval=100)
    model = build_model(cfg)
    before = state_bytes(model.backbone)
    ckpt, _ = train(cfg)
    # rebuild the trained model and compare raw backbone bytes
    after = np.concatenate([
        v[0].reshape(-1) for n, v in ckpt.tensors.items() if v[1] == "backbone"
    ]).tobytes()
    ref = np.concatenate([
        t.data.reshape(-1) for _, t in model.backbone.named_tensors()
    ]).tobytes()
    assert before == state_bytes(model.backbone)
    assert after == ref


# ---------------------------------------------------------------------------
# checkpoint format


def test_checkpoint_roundtrip_bytes(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=2, eval_interval=2)
    ckpt, _ = train(cfg)
    raw = ckpt.to_bytes()
    again = Checkpoint.from_bytes(raw).to_bytes()
    assert raw == again


def test_checkpoint_truncation_rejected(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=1, eval_interval=1)
    ckpt, _ = train(cfg)
    raw = ckpt.to_bytes()
    for cut in (4, 20, len(raw) // 2, len(raw) - 2):
        with pytest.raises(ParseError):
            Checkpoint.from_bytes(raw[:cut])


def test_checkpoint_trailing_bytes_rejected(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=1, eval_interval=1)
    ckpt, _ = train(cfg)
    raw = ckpt.to_bytes()
    with pytest.raises(ParseError, match="trailing") as err:
        Checkpoint.from_bytes(raw + b"\0")
    assert err.value.offset == len(raw)


def test_checkpoint_bad_magic():
    with pytest.raises(ParseError, match="magic"):
        Checkpoint.from_bytes(b"NOTMAGIC" + b"\0" * 16)


def test_checkpoint_load_into_shape_guard(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=1, eval_interval=1)
    ckpt, _ = train(cfg)
    model = build_model(cfg)
    name = next(iter(ckpt.tensors))
    arr, comp = ckpt.tensors[name]
    ckpt.tensors[name] = (np.zeros((2, 2), dtype=np.float32), comp)
    with pytest.raises(ShapeError, match=name.replace(".", r"\.")):
        ckpt.load_into(model)


def test_swap_with_itself_is_identity(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=2, eval_interval=2)
    ckpt, _ = train(cfg)
    swapped = swap_adapter(ckpt, ckpt)
    assert swapped.to_bytes() == ckpt.to_bytes()


def test_swap_shape_mismatch_names_tensor(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=1, eval_interval=1)
    a, _ = train(cfg)
    b, _ = train(cfg)
    name = "adapter.layer01.A"
    arr, comp = b.tensors[name]
    b.tensors[name] = (np.zeros((3, 3), dtype=np.float32), comp)
    with pytest.raises(ShapeError, match="adapter"):
        swap_adapter(a, b)


def test_swap_reproduces_donor_metrics(tiny_benchmark):
    # two runs over the same frozen backbone; grafting the donor's adapter
    # and head onto the base reproduces the donor's evaluation exactly
    base_cfg = tiny_train_config(tiny_benchmark, iterations=8, eval_interval=8,
                                 seed=1, backbone_seed=7)
    donor_cfg = tiny_train_config(tiny_benchmark, iterations=8, eval_interval=8,
                                  seed=2, backbone_seed=7)
    base, _ = train(base_cfg)
    donor, _ = train(donor_cfg)
    swapped = swap_adapter(base, donor)
    r_donor = evaluate(donor, tiny_benchmark, "test")
    r_swapped = evaluate(swapped, tiny_benchmark, "test")
    assert r_donor.miou == r_swapped.miou
    assert r_donor.per_class == pytest.approx(r_swapped.per_class, nan_ok=True)


# ---------------------------------------------------------------------------
# training runs


def test_same_seed_identical_metrics_and_checkpoint(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=6, eval_interval=3)
    ckpt_a, log_a = train(cfg)
    ckpt_b, log_b = train(cfg)
    assert log_a.to_csv_bytes() == log_b.to_csv_bytes()
    assert ckpt_a.to_bytes() == ckpt_b.to_bytes()


def test_zero_iteration_rein_equals_freeze(tiny_benchmark):
    rein_cfg = tiny_train_config(tiny_benchmark, iterations=0)
    freeze_cfg = tiny_train_config(tiny_benchmark, mode="freeze", iterations=0)
    ckpt_r, log_r = train(rein_cfg)
    ckpt_f, log_f = train(freeze_cfg)
    assert log_r.rows[0].test_miou == log_f.rows[0].test_miou
    assert log_r.rows[0].val_miou == log_f.rows[0].val_miou


def test_untrained_freeze_head_is_chance_level(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, mode="freeze", iterations=0)
    ckpt, log = train(cfg)
    assert log.rows[0].test_miou < 2.0 / 6.0


def test_memorize_single_sample(tmp_path):
    # overfit smoke: fine patches and enough queries to delineate the shapes
    from reinlab.adapter import ReinConfig
    from reinlab.data import generate_benchmark
    from reinlab.head import HeadConfig
    from reinlab.vit import ViTConfig

    root = tmp_path / "one"
    generate_benchmark(root, k=6, size=32, counts=(1, 1, 1), seed=3)
    vit = ViTConfig(image_size=32, patch_size=4, depth=2, dim=32, heads=4)
    rein = ReinConfig(c=32, depth=2, m=16, r=2, c_prime=8)
    head = HeadConfig(num_classes=6, embed_dim=16, num_queries=16)
    cfg = TrainConfig(vit=vit, head=head, rein=rein, mode="rein",
                      iterations=1500, batch_size=2, eval_interval=1500,
                      loss_window=50, data_root=str(root), seed=0,
                      lr_head_and_rein=2e-3, augment=False)
    ckpt, _ = train(cfg)
    report = evaluate(ckpt, root, "train")
    assert report.miou > 0.9


def test_evaluate_is_deterministic(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=4, eval_interval=4)
    ckpt, _ = train(cfg)
    a = evaluate(ckpt, tiny_benchmark, "val")
    b = evaluate(ckpt, tiny_benchmark, "val")
    assert a.miou == b.miou and a.per_class == pytest.approx(b.per_class,
                                                             nan_ok=True)


def _noised_model(root, mode):
    """A tiny model whose every tensor is noised, so that its predictions
    depend on the adapter, the head and each image."""
    model = build_model(tiny_train_config(root, mode=mode))
    rng = np.random.default_rng(5)
    for _, t, _ in model.named_tensors():
        t.data += rng.normal(0, 0.3, t.shape).astype(t.data.dtype)
    return model


def _serial_report(model, samples, num_classes, batch):
    """What ``evaluate_model`` reports, counted in one loop on this thread."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for start in range(0, len(samples), batch):
        chunk = samples[start:start + batch]
        preds = model.predict_labels(pixel_floats(np.stack([s.image for s in chunk])))
        cm += confusion_matrix(preds, np.stack([s.label for s in chunk]), num_classes)
    ious, mean = iou_from_confusion(cm)
    return EvalReport(per_class=list(ious), miou=mean, n_images=len(samples))


@pytest.mark.parametrize("mode", ["freeze", "rein"], ids=["freeze", "rein-lora"])
@pytest.mark.parametrize("count,batch", [(0, 8), (1, 8), (13, 8), (13, 1)],
                         ids=["0", "1", "13-partial-batch", "13-batch-1"])
def test_evaluate_model_equals_serial_reference(tiny_benchmark, mode, count, batch):
    samples = [s for split in ("train", "val", "test")
               for s in load_split(tiny_benchmark, split)][:count]
    assert len(samples) == count
    model = _noised_model(tiny_benchmark, mode)
    got = evaluate_model(model, samples, 6, batch=batch)
    want = _serial_report(model, samples, 6, batch)
    assert got.as_dict() == want.as_dict()
    assert got.n_images == count


def _split_samples(root):
    """The tiny benchmark's 14 scenes: batch 0 on the caller's share and
    batch 1 on a child's, when evaluation runs two shares of batch 8."""
    return [s for split in ("train", "val", "test") for s in load_split(root, split)]


def _digest(model, images):
    return hashlib.sha256(model.forward_rows(images).data.tobytes()
                          + model.predict_labels(images).tobytes()).digest()


def test_forked_child_forward_has_the_parent_bytes(tiny_benchmark):
    model = _noised_model(tiny_benchmark, "rein")
    images = pixel_floats(np.stack([s.image for s in load_split(tiny_benchmark, "train")]))
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.write(write_fd, _digest(model, images))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        got = pipe.read()
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert got == _digest(model, images)


@pytest.mark.parametrize("where", [8, 0], ids=["child-share", "caller-share"])
def test_share_exception_reaches_the_caller(tiny_benchmark, monkeypatch, where):
    # a float32 sample in a share fails its batch's pixel_floats; no child
    # may be left behind (the autouse fixture checks), whichever share fails
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    samples = _split_samples(tiny_benchmark)
    bad = samples[where]
    samples[where] = replace(bad, image=bad.image.astype(np.float32) / 255.0)
    with pytest.raises(ContractError) as serial:
        pixel_floats(np.stack([s.image for s in samples[where:where + 1]]))
    with pytest.raises(ContractError) as forked:
        evaluate_model(_noised_model(tiny_benchmark, "freeze"), samples, 6)
    assert str(forked.value) == str(serial.value)
    assert (forked.value.__notes__[0].startswith("raised in evaluation child")
            if where else not hasattr(forked.value, "__notes__"))


def test_child_without_a_result_raises_with_its_exit_status(tiny_benchmark, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    model = _noised_model(tiny_benchmark, "freeze")
    caller, predict = os.getpid(), model.predict_labels

    def exits_in_a_child(images):
        if os.getpid() != caller:
            os._exit(3)
        return predict(images)

    monkeypatch.setattr(model, "predict_labels", exits_in_a_child)
    with pytest.raises(ReinlabError, match=r"ended without a result \(exit status 3\)") as err:
        evaluate_model(model, _split_samples(tiny_benchmark), 6)
    assert type(err.value) is ReinlabError


def _no_fork():
    raise AssertionError("evaluation forked")


def test_one_cpu_counts_every_batch_on_the_caller(tiny_benchmark, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", _no_fork)
    model = _noised_model(tiny_benchmark, "rein")
    samples = _split_samples(tiny_benchmark)
    got = evaluate_model(model, samples, 6, batch=2)
    assert got.as_dict() == _serial_report(model, samples, 6, 2).as_dict()


def test_a_process_running_threads_does_not_fork(tiny_benchmark, monkeypatch):
    # a fork copies only the calling thread, so a second live thread keeps
    # evaluation on the caller
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", _no_fork)
    model = _noised_model(tiny_benchmark, "rein")
    samples = _split_samples(tiny_benchmark)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        got = evaluate_model(model, samples, 6, batch=2)
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert got.as_dict() == _serial_report(model, samples, 6, 2).as_dict()


def test_worker_thread_predictions_equal_the_main_thread(tiny_benchmark):
    # more workers than cores, switching threads often: each forward must
    # still give the main thread's bytes, for a caller that runs forwards
    # on threads of its own
    model = _noised_model(tiny_benchmark, "rein")
    images = pixel_floats(np.stack([s.image for s in load_split(tiny_benchmark, "train")]))
    want = (model.forward_rows(images).data.tobytes(),
            model.predict_labels(images).tobytes())

    def both(x):
        return model.forward_rows(x).data.tobytes(), model.predict_labels(x).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(both, [images] * 8, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 8


def test_predict_labels_is_the_first_argmax(tiny_benchmark):
    images = pixel_floats(np.stack([s.image for s in load_split(tiny_benchmark, "train")]))
    model = _noised_model(tiny_benchmark, "rein")
    want = model.forward_rows(images).data.argmax(axis=1).reshape(-1, 32, 32)
    np.testing.assert_array_equal(model.predict_labels(images), want)
    # A fresh head scores every pixel alike: half the column sums of its
    # class bias. Classes 2 and 4 tie for the maximum, and 2 must win.
    model = build_model(tiny_train_config(tiny_benchmark, mode="freeze"))
    bias = model.head.params["head.b_cls"].data
    bias[:] = 0.0
    bias[:, 2] = bias[:, 4] = 1.0
    rows = model.forward_rows(images).data
    assert (rows[:, 2] == rows[:, 4]).all() and (rows.argmax(axis=1) == 2).all()
    assert (model.predict_labels(images) == 2).all()


@pytest.mark.parametrize("mode", ["rein", "freeze"], ids=["rein-lora", "freeze"])
def test_predict_labels_batch8_peak_memory(mode):
    # A desk eval batch's live arrays peaked at 3.27 MiB (rein-lora) and
    # 3.13 MiB (freeze) while each layer kept its attention arrays through
    # the MLP, gelu made a third [rows, hidden] temporary, and the argmax
    # copied the class-major scores to row-major; 2.27 and 2.13 MiB without.
    model = build_model(desk_config(mode=mode, pretrain=None))
    images = np.random.default_rng(0).uniform(0, 1, (8, 3, 64, 64)).astype(np.float32)
    model.predict_labels(images)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        model.predict_labels(images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 2.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_a_tape_records_only_its_own_thread(tiny_benchmark):
    model = build_model(tiny_train_config(tiny_benchmark))
    images = np.random.default_rng(0).uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)
    with Tape() as serial:
        model.forward_rows(images)
    assert len(serial) > 0

    def on_worker_tape():
        with Tape() as tape:
            model.forward_rows(images)
        return len(tape)

    with Tape() as main:
        with ThreadPoolExecutor(2) as pool:
            untaped = pool.submit(model.forward_rows, images)
            counted = pool.submit(on_worker_tape)
            untaped.result(timeout=120)
            assert counted.result(timeout=120) == len(serial)
    assert len(main) == 0


def test_class_count_mismatch_rejected(tiny_benchmark, tmp_path):
    from reinlab.data import generate_benchmark

    other = tmp_path / "k5"
    generate_benchmark(other, k=5, size=32, counts=(2, 1, 1), seed=0)
    cfg = tiny_train_config(tiny_benchmark, iterations=1, eval_interval=1)
    ckpt, _ = train(cfg)
    with pytest.raises(ConfigError, match="has 5 classes"):
        evaluate(ckpt, other, "test")
    with pytest.raises(ConfigError, match="has 5 classes"):
        train(tiny_train_config(other))
    # a 64 px checkpoint on 32 px scenes fails before any image loads
    desk = desk_config(pretrain=None)
    ckpt = Checkpoint.from_model(build_model(desk), {"config": desk.to_dict()})
    sizes = "of 32x32 images, model expects 6 classes of 64x64"
    with pytest.raises(ConfigError, match=sizes):
        evaluate(ckpt, tiny_benchmark, "test")
    with pytest.raises(ConfigError, match=sizes):
        train(replace(desk, data_root=str(tiny_benchmark)))


@pytest.mark.parametrize("bad,message", [b[1:] for b in BAD_CONFIGS],
                         ids=[b[0] for b in BAD_CONFIGS])
def test_malformed_config_raises_config_error(bad, message, tiny_benchmark):
    good = tiny_train_config(tiny_benchmark).to_dict()
    with pytest.raises(ConfigError, match=message):
        TrainConfig.from_dict(bad(good))
    # a checkpoint that stores it fails to evaluate with the same error
    ckpt = Checkpoint.from_model(build_model(TrainConfig.from_dict(good)),
                                 {"config": bad(good)})
    with pytest.raises(ConfigError, match=message):
        evaluate(ckpt, tiny_benchmark)


def test_train_rejects_manifest_without_class_count(tmp_path):
    (tmp_path / "manifest.json").write_text('{"h": 32, "w": 32}')
    with pytest.raises(ParseError, match="'k'"):
        train(tiny_train_config(tmp_path))


@pytest.mark.parametrize("field,value", [("eval_interval", 0), ("eval_interval", -5),
                                         ("loss_window", 0), ("loss_window", -1)])
def test_nonpositive_eval_interval_and_loss_window_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        tiny_train_config("", **{field: value})


def test_metrics_param_count_constant(tiny_benchmark):
    cfg = tiny_train_config(tiny_benchmark, iterations=6, eval_interval=2)
    _, log = train(cfg)
    counts = {r.params for r in log.rows}
    assert len(counts) == 1
    iters = [r.iteration for r in log.rows]
    assert iters == sorted(set(iters))


def test_divergence_keeps_partial_log(tiny_benchmark):
    from reinlab.train import TrainDiverged

    cfg = tiny_train_config(tiny_benchmark, iterations=30, eval_interval=5,
                            lr_head_and_rein=1e10)  # force a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            train(cfg)
        except TrainDiverged as e:
            assert e.metrics is not None
        except NumericError:
            pass  # a NaN gradient caught by the optimizer is also a valid abort
        else:
            pytest.fail("expected divergence")
