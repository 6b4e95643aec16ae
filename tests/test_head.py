"""Decode head: fusion formula, upsampling, loss, confusion matrix and IoU."""

import math

import numpy as np
import pytest

from reinlab import head as H
from reinlab import tensor as T
from reinlab.errors import ConfigError, ContractError, ShapeError
from reinlab.tensor import Tape, Tensor


def make_head(k=3, d=8, queries=4, cp=4, taps=2, c=8, grid=(2, 2), out=(8, 8),
              seed=0, owns=True):
    cfg = H.HeadConfig(num_classes=k, embed_dim=d, num_queries=queries)
    return H.SegHead(cfg, taps, c, cp, grid, out, np.random.default_rng(seed),
                     owns_queries=owns)


def decode_own(head, tapped):
    """Decode with the head's own query set, as the freeze and full modes do."""
    return head.decode_rows(tapped, head.params["head.queries"])


def rand_taps(rng, taps=2, n=4, c=8):
    return [Tensor(rng.standard_normal((n, c)).astype(np.float32))
            for _ in range(taps)]


def test_config_validation():
    with pytest.raises(ConfigError):
        H.HeadConfig(num_classes=1)
    with pytest.raises(ConfigError):
        H.HeadConfig(num_classes=3, embed_dim=2)


def test_zero_query_zero_weights_uniform_logits():
    head = make_head()
    head.params["head.b_cls"].data[:] = 0.0  # zero every head weight
    tapped = rand_taps(np.random.default_rng(1))
    q = Tensor(np.zeros((4, 4)))
    rows, class_logits, _, _ = head.decode_rows(tapped, q)
    # all-zero class logits -> uniform prediction everywhere
    assert np.all(class_logits.data == 0.0)
    assert np.all(rows.data == 0.0)


def test_single_query_saturated_mask_degenerates():
    head = make_head(queries=1)
    # force huge mask logits and a fixed class row
    head.params["head.W_pix"].data[:] = 0.0
    head.params["head.b_pix"].data[:] = 10.0
    head.params["head.W_qd"].data[:] = 0.0
    head.params["head.b_qd"].data[:] = 10.0
    head.params["head.b_cls"].data[:] = [1.0, 2.0, 3.0]
    tapped = rand_taps(np.random.default_rng(2))
    rows, _, mask_logits, _ = head.decode_rows(tapped, Tensor(np.zeros((1, 4))))
    assert np.all(H.T.sigmoid(mask_logits).data == 1.0)
    np.testing.assert_allclose(
        rows.data, np.tile([1.0, 2.0, 3.0], (64, 1)), atol=1e-5)


def test_fusion_formula_matches_loop_oracle():
    head = make_head(seed=3)
    # randomize the zero-init classifier so the formula is exercised
    rng = np.random.default_rng(4)
    head.params["head.W_cls"].data[:] = rng.standard_normal((4, 3)) * 0.5
    head.params["head.b_cls"].data[:] = rng.standard_normal(3) * 0.5
    tapped = rand_taps(rng)
    q = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
    _, class_logits, mask_logits, coarse = head.decode_rows(tapped, q)

    mask = mask_logits.data.astype(np.float64)
    cls = class_logits.data.astype(np.float64)
    want = np.zeros((3, 4))
    for k in range(3):
        for p in range(4):
            for qi in range(4):
                want[k, p] += cls[qi, k] / (1 + math.exp(-mask[qi, p]))
    np.testing.assert_allclose(coarse.data, want, atol=1e-6)


def test_upsample_matches_bilinear_loop():
    # per-pixel loop transcription of half-pixel-centre bilinear resampling
    rng = np.random.default_rng(5)
    src = rng.standard_normal((2, 3)).astype(np.float64)
    p = H.bilinear_matrix((2, 3), (5, 7))
    got = (p @ src.reshape(-1)).reshape(5, 7)
    want = np.zeros((5, 7))
    for dy in range(5):
        for dx in range(7):
            sy = (dy + 0.5) * (2 / 5) - 0.5
            sx = (dx + 0.5) * (3 / 7) - 0.5
            y0, x0 = math.floor(sy), math.floor(sx)
            ty, tx = sy - y0, sx - x0
            acc = 0.0
            for yy, wy in ((y0, 1 - ty), (y0 + 1, ty)):
                for xx, wx in ((x0, 1 - tx), (x0 + 1, tx)):
                    acc += wy * wx * src[min(max(yy, 0), 1), min(max(xx, 0), 2)]
            want[dy, dx] = acc
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(35), atol=1e-12)


def _loop_bilinear_matrix(src_hw, dst_hw):
    """Reference: the per-pixel loop that accumulates the four bilinear taps
    of each output pixel into its matrix row."""
    (sh, sw), (dh, dw) = src_hw, dst_hw

    def axis_weights(src, dst):
        x = (np.arange(dst) + 0.5) * (src / dst) - 0.5
        x0f = np.floor(x)
        return (np.clip(x0f, 0, src - 1).astype(int),
                np.clip(x0f + 1, 0, src - 1).astype(int), x - x0f)

    y0, y1, ty = axis_weights(sh, dh)
    x0, x1, tx = axis_weights(sw, dw)
    p = np.zeros((dh * dw, sh * sw))
    for dy in range(dh):
        for dx in range(dw):
            for sy, wy in ((y0[dy], 1 - ty[dy]), (y1[dy], ty[dy])):
                for sx, wx in ((x0[dx], 1 - tx[dx]), (x1[dx], tx[dx])):
                    p[dy * dw + dx, sy * sw + sx] += wy * wx
    return p


@pytest.mark.parametrize("src,dst", [((8, 8), (64, 64)), ((2, 2), (8, 8)),
                                     ((4, 4), (32, 32)), ((8, 8), (32, 32)),
                                     ((2, 2), (16, 16)), ((2, 3), (5, 7))])
def test_kronecker_upsample_equals_loop_exactly(src, dst):
    # the grid -> image shapes of the desk and test configs
    np.testing.assert_array_equal(H.bilinear_matrix(src, dst),
                                  _loop_bilinear_matrix(src, dst))


def test_kronecker_upsample_equals_loop_after_float32_cast():
    # at this shape the clamped border sums (a+b)(c+d) and ac+ad+bc+bd part
    # in the last float64 bit; SegHead stores the matrix as float32
    got = H.bilinear_matrix((3, 5), (7, 11))
    want = _loop_bilinear_matrix((3, 5), (7, 11))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert got.astype(np.float32).tobytes() == want.astype(np.float32).tobytes()


def test_heads_of_one_shape_share_a_read_only_upsample_matrix():
    a, b = make_head(seed=0), make_head(seed=1)
    assert a._upsample.data is b._upsample.data
    assert a._upsample.data.tobytes() == np.ascontiguousarray(
        H.bilinear_matrix((2, 2), (8, 8)).T, dtype=np.float32).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        a._upsample.data[0, 0] = 1.0
    assert make_head(out=(16, 16))._upsample.data.shape == (4, 256)
    with T.using_dtype(np.float64):
        assert make_head()._upsample.data.dtype == np.float64


def _randomized_head(seed=30, **shape):
    head = make_head(seed=seed, **shape)
    rng = np.random.default_rng(seed + 1)
    for name in ("head.W_qd", "head.b_qd", "head.W_cls"):
        t = head.params[name]
        t.data[:] = rng.standard_normal(t.shape) * 0.5
    return head


def test_batched_decode_matches_per_image_reference_bytes():
    # One upsample GEMM for the batch must give exactly the bytes of one GEMM
    # per image, forward and backward. Bit equality is a property of the BLAS
    # kernels at a given shape, so this runs the desk decode shapes (6
    # classes, 8x8 patches to 64x64 pixels); at some tiny shapes OpenBLAS
    # picks different kernels for the two layouts and the last bits differ.
    bsz, k, n, hw = 3, 6, 64, 64 * 64
    head = _randomized_head(k=k, grid=(8, 8), out=(64, 64))
    rng = np.random.default_rng(32)
    tapped = rand_taps(rng, n=bsz * n)
    upsample = H.bilinear_matrix((8, 8), (64, 64)).T.astype(np.float32)
    weights = Tensor(rng.standard_normal((bsz * hw, k)).astype(np.float32))

    with Tape() as tape:
        rows, _, _, coarse = decode_own(head, tapped)
        tape.backward(T.sum_all(T.mul(rows, weights)))
    got_grads = {name: head.params[name].grad for name in ("head.W_pix", "head.W_cls")}
    want = np.concatenate([(coarse.data[:, b * n:(b + 1) * n] @ upsample).T
                           for b in range(bsz)])
    np.testing.assert_array_equal(rows.data, want)

    # the same loss through one narrow -> matmul -> transpose per image
    for t in head.params.values():
        t.grad = None
    with Tape() as tape:
        _, _, _, coarse = decode_own(head, tapped)
        up = Tensor(upsample)
        ref_rows = T.concat(
            [T.transpose(T.matmul(T.narrow(coarse, 1, b * n, (b + 1) * n), up))
             for b in range(bsz)], axis=0)
        tape.backward(T.sum_all(T.mul(ref_rows, weights)))
    for name, grad in got_grads.items():
        np.testing.assert_array_equal(grad, head.params[name].grad, err_msg=name)


def test_decode_tape_records_independent_of_batch_size():
    head = _randomized_head()
    counts = []
    for bsz in (1, 8):
        with Tape() as tape:
            decode_own(head, rand_taps(np.random.default_rng(33), n=bsz * 4))
        counts.append(len(tape))
    assert counts[0] == counts[1]


def test_decode_rejects_rows_of_partial_images():
    # the image count is rows / patches per image, so 6 rows of 4-patch
    # images are refused
    with pytest.raises(ShapeError):
        decode_own(make_head(), rand_taps(np.random.default_rng(35), n=6))


def test_linear_fallback_head_rejected():
    with pytest.raises(ConfigError, match="use_query_head"):
        H.HeadConfig(num_classes=3, use_query_head=False)


def test_output_shape_independent_of_query_source():
    tapped = rand_taps(np.random.default_rng(8))
    owned_rows, _, _, owned_coarse = decode_own(make_head(owns=True), tapped)
    ext_rows, _, _, ext_coarse = make_head(owns=False).decode_rows(
        tapped, Tensor(np.random.default_rng(9).standard_normal((4, 4))))
    assert owned_rows.shape == ext_rows.shape
    assert owned_coarse.shape == ext_coarse.shape


# ---------------------------------------------------------------------------
# loss


def test_loss_uniform_logits_is_log_k():
    head = make_head(k=4)
    head.params["head.b_cls"].data[:] = 0.0  # force uniform predictions
    rows, _, _, _ = decode_own(head, rand_taps(np.random.default_rng(10)))
    label = np.random.default_rng(11).integers(0, 4, (8, 8))
    loss = T.cross_entropy_logits(rows, label.reshape(-1))
    assert abs(loss.item() - math.log(4)) <= 1e-4


def test_loss_perfect_prediction_near_zero():
    rows = np.full((16, 3), -50.0, dtype=np.float32)
    label = np.random.default_rng(12).integers(0, 3, 16)
    rows[np.arange(16), label] = 50.0
    assert T.cross_entropy_logits(Tensor(rows), label).item() < 1e-3


def test_loss_random_case_matches_scalar_loop():
    rng = np.random.default_rng(13)
    rows = rng.uniform(-2, 2, (12, 3)).astype(np.float32)
    label = rng.integers(0, 3, 12)
    label[3] = 255
    got = T.cross_entropy_logits(Tensor(rows), label).item()
    total = count = 0
    for i, lab in enumerate(label):
        if lab == 255:
            continue
        row = rows[i].astype(np.float64)
        total += math.log(np.exp(row).sum()) - row[lab]
        count += 1
    assert abs(got - total / count) <= 1e-6


def test_loss_all_ignored_rejected():
    with pytest.raises(ContractError):
        T.cross_entropy_logits(Tensor(np.zeros((4, 3))), np.full(4, 255))


def test_loss_descends_under_sgd():
    head = make_head(seed=20)
    rng = np.random.default_rng(21)
    tapped = rand_taps(rng)
    label = rng.integers(0, 3, (8, 8))
    losses = []
    for _ in range(10):
        with Tape() as tape:
            rows, _, _, _ = decode_own(head, tapped)
            loss = T.cross_entropy_logits(rows, label.reshape(-1))
            tape.backward(loss)
        losses.append(loss.item())
        for t in head.params.values():
            if t.grad is not None:
                t.data -= 1e-2 * t.grad
                t.grad = None
    assert all(b < a for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# confusion matrix and IoU


def _iou(pred, gt, k):
    return H.iou_from_confusion(H.confusion_matrix(pred, gt, k))


def test_miou_perfect():
    gt = np.random.default_rng(14).integers(0, 3, (6, 6))
    _, mean = _iou(gt, gt, 3)
    assert mean == 1.0


def test_miou_disjoint_single_class():
    gt = np.zeros((4, 4), dtype=int)
    pred = np.ones((4, 4), dtype=int)
    ious, _ = _iou(pred, gt, 3)
    assert ious[0] == 0.0 and ious[1] == 0.0
    assert np.isnan(ious[2])


def test_miou_hand_counts():
    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 1], [1, 1]])
    np.testing.assert_array_equal(H.confusion_matrix(pred, gt, 2), [[1, 1], [0, 2]])
    ious, mean = _iou(pred, gt, 2)
    np.testing.assert_allclose(ious, [0.5, 2 / 3])
    assert abs(mean - 7 / 12) <= 1e-12


def test_miou_ignores_255():
    # ignored positions drop out of both intersection and union, so the
    # mismatched predictions there cannot hurt
    gt = np.array([[0, 255], [1, 255]])
    pred = np.array([[0, 1], [1, 0]])
    assert H.confusion_matrix(pred, gt, 2).sum() == 2
    ious, mean = _iou(pred, gt, 2)
    np.testing.assert_allclose(ious, [1.0, 1.0])
    assert mean == 1.0


def test_miou_permutation_symmetric():
    rng = np.random.default_rng(15)
    gt = rng.integers(0, 4, (10, 10))
    pred = rng.integers(0, 4, (10, 10))
    _, mean = _iou(pred, gt, 4)
    perm = np.array([2, 3, 1, 0])
    _, mean_p = _iou(perm[pred], perm[gt], 4)
    assert abs(mean - mean_p) <= 1e-12


def test_confusion_label_outside_classes_raises():
    # a label file may hold any byte; one past K is an error, not a count
    gt = np.array([[0, 255], [6, 1]], dtype=np.uint8)
    with pytest.raises(ContractError, match=r"labels outside \[0,6\) and != 255"):
        H.confusion_matrix(np.zeros((2, 2), dtype=np.intp), gt, 6)


def test_confusion_label_shapes_must_match():
    with pytest.raises(ShapeError):
        H.confusion_matrix(np.zeros((2, 2)), np.zeros((2, 3)), 2)


@pytest.mark.parametrize("seed", range(20))
def test_confusion_matrix_equals_the_masked_count(seed):
    # the formula the one-bincount count replaced
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 8))
    shape = tuple(rng.integers(1, 9, int(rng.integers(1, 4))))
    gt = rng.integers(0, k, shape).astype(np.uint8)
    gt[rng.random(shape) < rng.random()] = 255
    pred = rng.integers(0, k, shape)
    valid = gt != 255
    idx = gt[valid].astype(np.int64) * k + pred[valid].astype(np.int64)
    want = np.bincount(idx, minlength=k * k).reshape(k, k)
    got = H.confusion_matrix(pred, gt, k)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
