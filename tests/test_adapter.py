"""Refinement adapter: init contract, chain math vs oracles, sharing."""

import math

import numpy as np
import pytest

from reinlab import adapter as A
from reinlab import tensor as T
from reinlab.errors import ConfigError, ContractError, ShapeError
from reinlab.tensor import Tape, Tensor


def cfg_toy(**kw):
    base = dict(c=8, depth=2, m=4, r=2, c_prime=4)
    base.update(kw)
    return A.ReinConfig(**base)


def elimination_rank(mat, tol=1e-4):
    """Numerical rank by Gaussian elimination with partial pivoting.

    Independent of any linalg library: eliminate column by column, counting
    pivots whose magnitude exceeds ``tol``.
    """
    a = np.array(mat, dtype=np.float64)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        piv = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[piv, col]) <= tol:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] / a[rank, col]
        for row in range(rows):
            if row != rank:
                a[row] = a[row] - a[row, col] * a[rank]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# configuration and initialization


def test_m_below_two_rejected():
    with pytest.raises(ConfigError):
        A.ReinConfig(c=8, depth=1, m=1, r=2, c_prime=4)


def test_rank_must_stay_below_width():
    with pytest.raises(ConfigError):
        A.ReinConfig(c=8, depth=1, m=4, r=8, c_prime=4)


def test_variant_flags():
    assert A.ReinConfig.from_variant("rein-core", c=8, depth=1, m=4, r=2,
                                     c_prime=4).variant_name == "rein-core"
    assert cfg_toy().variant_name == "rein-lora"
    with pytest.raises(ConfigError):
        A.ReinConfig.from_variant("rein-mystery", c=8, depth=1, m=4, r=2, c_prime=4)


def test_init_zero_and_uniform_split():
    params = A.init_parameters(cfg_toy(), seed=0)
    assert np.all(params["adapter.shared.W_f"].data == 0.0)
    for name in ("b_T", "b_f", "b_Q"):
        assert np.all(params[f"adapter.shared.{name}"].data == 0.0)
    assert np.all(params["adapter.final.b_Q_cat"].data == 0.0)
    bound = 1.0 / math.sqrt(2)
    a1 = params["adapter.layer01.A"].data
    assert np.all(np.abs(a1) < bound)
    assert np.any(a1 != 0.0)


def test_init_seed_sensitivity():
    a1 = A.init_parameters(cfg_toy(), seed=1)["adapter.layer01.A"].data
    a2 = A.init_parameters(cfg_toy(), seed=2)["adapter.layer01.A"].data
    assert np.all(a1 != a2)


def test_init_rank_one_tokens():
    cfg = A.ReinConfig(c=4, depth=1, m=2, r=1, c_prime=4)
    params = A.init_parameters(cfg, seed=3)
    tokens = A.materialize_tokens(params, 1)
    assert elimination_rank(tokens.data) <= 1


def test_shared_storage_is_single_slot():
    params = A.init_parameters(cfg_toy(), seed=0)
    w1, _ = params.mlp("T", 1)
    w2, _ = params.mlp("T", 2)
    assert w1 is w2
    untied = A.init_parameters(cfg_toy(use_share=False), seed=0)
    assert untied.mlp("T", 1)[0] is not untied.mlp("T", 2)[0]


# ---------------------------------------------------------------------------
# token materialization


def test_materialize_hand_product():
    cfg = A.ReinConfig(c=2, depth=1, m=2, r=1, c_prime=2)
    params = A.init_parameters(cfg, seed=0)
    params["adapter.layer01.A"].data[:] = [[1.0], [0.0]]
    params["adapter.layer01.B"].data[:] = [[2.0, 3.0]]
    tokens = A.materialize_tokens(params, 1)
    np.testing.assert_array_equal(tokens.data, [[2.0, 3.0], [0.0, 0.0]])


def test_materialize_rank_bound_large():
    cfg = A.ReinConfig(c=1024, depth=1, m=100, r=16, c_prime=256)
    params = A.init_parameters(cfg, seed=7)
    tokens = A.materialize_tokens(params, 1)
    assert elimination_rank(tokens.data, tol=1e-4) <= 16


# ---------------------------------------------------------------------------
# similarity map


def test_similarity_uniform_for_zero_features():
    params = A.init_parameters(cfg_toy(), seed=1)
    tokens = A.materialize_tokens(params, 1)
    sim = A.similarity_map(Tensor(np.zeros((5, 8))), tokens, 8)
    np.testing.assert_allclose(sim.data, np.full((5, 4), 0.25), atol=1e-7)


def test_similarity_scalar_case():
    f = Tensor([[1.0]])
    tokens = Tensor([[1.0], [-1.0]])
    sim = A.similarity_map(f, tokens, 1)
    np.testing.assert_allclose(sim.data, [[0.8808, 0.1192]], atol=1e-3)


def test_similarity_rows_sum_to_one():
    rng = np.random.default_rng(2)
    sim = A.similarity_map(Tensor(rng.standard_normal((7, 8))),
                           Tensor(rng.standard_normal((4, 8))), 8)
    np.testing.assert_allclose(sim.data.sum(axis=1), np.ones(7), atol=1e-6)


def test_similarity_ignores_token_nullspace():
    # tokens live in the first 7 coordinates; adding any multiple of e_8 to
    # the features cannot change the dot products.
    rng = np.random.default_rng(3)
    tok = rng.standard_normal((4, 8))
    tok[:, 7] = 0.0
    f = rng.standard_normal((5, 8))
    shift = np.zeros((5, 8))
    shift[:, 7] = 3.7
    s0 = A.similarity_map(Tensor(f), Tensor(tok), 8).data
    s1 = A.similarity_map(Tensor(f + shift), Tensor(tok), 8).data
    assert np.max(np.abs(s0 - s1)) <= 1e-6


def test_similarity_width_mismatch():
    with pytest.raises(ShapeError):
        A.similarity_map(Tensor(np.zeros((2, 5))), Tensor(np.zeros((3, 8))), 8)


# ---------------------------------------------------------------------------
# deltas


def core_refine(f, tokens, w_t, b_t, w_f, b_f):
    """One ``rein_refine`` layer of a core adapter whose tensors are set by
    hand; returns (delta, f) as float32 arrays."""
    m, c = tokens.shape
    adapter = A.init_parameters(
        A.ReinConfig.from_variant("rein-core", c=c, depth=1, m=m), seed=0)
    for name, value in (("T", tokens), ("W_T", w_t), ("b_T", b_t),
                        ("W_f", w_f), ("b_f", b_f)):
        adapter[f"adapter.layer01.{name}"].data[:] = value
    f = Tensor(f)
    delta, _ = A.rein_refine(1, f, adapter)
    return delta.data, f.data


def token_mix(f, tokens, w_t, b_t):
    """dbar = S[:, 1:] (T[1:] W_T + b_T): with W_f = I and b_f = 0 the
    layer delta is dbar + f."""
    c = tokens.shape[1]
    delta, f = core_refine(f, tokens, w_t, b_t, np.eye(c), np.zeros(c))
    return delta - f


def test_token_delta_hand_case():
    # f = 1/3 against tokens [5] and [-1] gives the map [0.8808, 0.1192];
    # weight 0.1192 on the single kept token [-1] -> -0.1192
    out = token_mix(np.array([[1.0 / 3.0]]), np.array([[5.0], [-1.0]]),
                    np.array([[1.0]]), np.array([0.0]))
    np.testing.assert_allclose(out, [[-0.1192]], atol=1e-3)


def test_token_delta_zero_map():
    rng = np.random.default_rng(4)
    out = token_mix(rng.standard_normal((3, 8)), rng.standard_normal((4, 8)),
                    np.zeros((8, 8)), np.zeros(8))
    assert np.all(out == 0.0)


def test_token_delta_all_mass_on_excluded_token():
    # the first token outscores the others by thousands of logits, so the
    # kept columns of the map underflow to exactly zero
    tokens = np.random.default_rng(5).standard_normal((3, 4))
    tokens[0] = [1000.0, 0.0, 0.0, 0.0]
    out = token_mix(np.array([[10.0, 0.0, 0.0, 0.0]]), tokens, np.eye(4),
                    np.zeros(4))
    assert np.max(np.abs(out)) == 0.0


def test_feature_delta_zero_weights_is_identity_start():
    rng = np.random.default_rng(6)
    dbar = Tensor(rng.standard_normal((3, 8)))
    f = Tensor(rng.standard_normal((3, 8)))
    out = A.feature_delta(dbar, f, Tensor(np.zeros((8, 8))), Tensor(np.zeros(8)))
    assert np.all(out.data == 0.0)


def test_feature_delta_identity_weight():
    rng = np.random.default_rng(7)
    f = Tensor(rng.standard_normal((3, 8)))
    out = A.feature_delta(Tensor(np.zeros((3, 8))), f, Tensor(np.eye(8)),
                          Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data, f.data, atol=1e-7)


def test_chain_matches_straight_line_recomputation():
    # independent numpy transcription of similarity -> token delta -> final
    # delta for one layer
    rng = np.random.default_rng(8)
    c, m, n = 8, 4, 5
    f = rng.standard_normal((n, c)).astype(np.float32)
    tok = rng.standard_normal((m, c)).astype(np.float32)
    w_t = rng.standard_normal((c, c)).astype(np.float32)
    b_t = rng.standard_normal(c).astype(np.float32)
    w_f = rng.standard_normal((c, c)).astype(np.float32)
    b_f = rng.standard_normal(c).astype(np.float32)

    got, _ = core_refine(f, tok, w_t, b_t, w_f, b_f)

    logits = (f.astype(np.float64) @ tok.astype(np.float64).T) / math.sqrt(c)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    dbar_ref = s[:, 1:] @ (tok.astype(np.float64)[1:] @ w_t + b_t)
    want = (dbar_ref + f) @ w_f + b_f
    assert np.max(np.abs(got - want)) <= 1e-5


# ---------------------------------------------------------------------------
# queries


def test_layer_queries_zero_weights():
    tokens = Tensor(np.random.default_rng(9).standard_normal((4, 8)))
    q = A.layer_queries(tokens, Tensor(np.zeros((8, 4))), Tensor(np.zeros(4)))
    assert np.all(q.data == 0.0)


def test_layer_queries_identity_selection():
    rng = np.random.default_rng(10)
    w = rng.standard_normal((4, 4)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    q = A.layer_queries(Tensor(np.eye(4)), Tensor(w), Tensor(b))
    np.testing.assert_allclose(q.data, w + b, atol=1e-6)


def test_layer_queries_matches_matmul_oracle():
    rng = np.random.default_rng(11)
    tok = rng.standard_normal((4, 8)).astype(np.float32)
    w = rng.standard_normal((8, 4)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    got = A.layer_queries(Tensor(tok), Tensor(w), Tensor(b)).data
    want = tok.astype(np.float64) @ w + b
    assert np.max(np.abs(got - want)) <= 1e-6


def test_aggregate_single_layer_collapse():
    rng = np.random.default_rng(12)
    q1 = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
    w = Tensor(rng.standard_normal((12, 4)).astype(np.float32))
    b = Tensor(rng.standard_normal(4).astype(np.float32))
    got = A.aggregate_queries([q1], w, b).data
    want = np.concatenate([q1.data] * 3, axis=1) @ w.data + b.data
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_aggregate_hand_max_avg():
    q1, q2 = Tensor([[1.0]]), Tensor([[3.0]])
    assert T.stack_max([q1, q2]).item() == 3.0
    assert T.stack_mean([q1, q2]).item() == 2.0


def test_aggregate_empty_rejected():
    with pytest.raises(ContractError):
        A.aggregate_queries([], Tensor(np.zeros((3, 1))), Tensor(np.zeros(1)))


def test_aggregate_max_gradient_routing_vs_fd():
    with T.using_dtype(np.float64):
        rng = np.random.default_rng(13)
        qs = [Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
              for _ in range(3)]
        w = Tensor(rng.uniform(-1, 1, (6, 2)))
        b = Tensor(rng.uniform(-1, 1, (2,)))
        probe = Tensor(rng.uniform(-1, 1, (3, 2)))

        def loss_of(qlist):
            return T.sum_all(T.mul(A.aggregate_queries(qlist, w, b), probe))

        with Tape() as tape:
            tape.backward(loss_of(qs))
        for j, q in enumerate(qs):
            num = T.finite_difference_gradient(
                lambda _q: loss_of(qs), q, h=1e-3)
            assert T.relative_error(q.grad, num.data) <= 1e-3


# ---------------------------------------------------------------------------
# full refinement


def test_fresh_init_is_identity():
    params = A.init_parameters(cfg_toy(), seed=20)
    rng = np.random.default_rng(21)
    for i in (1, 2):
        f = Tensor(rng.standard_normal((6, 8)))
        delta, q = A.rein_refine(i, f, params)
        assert np.all(delta.data == 0.0)
        assert q is not None


def test_share_tying_equivalence():
    # untied adapter with every layer's MLP forced to the shared values must
    # produce bitwise-identical deltas and queries
    shared = A.init_parameters(cfg_toy(), seed=22)
    untied = A.init_parameters(cfg_toy(use_share=False), seed=23)
    for i in (1, 2):
        lp = f"adapter.layer{i:02d}."
        for nm in ("A", "B"):
            untied[lp + nm].data[:] = shared[lp + nm].data
        for kind in ("T", "f", "Q"):
            untied[lp + f"W_{kind}"].data[:] = shared[f"adapter.shared.W_{kind}"].data
            untied[lp + f"b_{kind}"].data[:] = shared[f"adapter.shared.b_{kind}"].data
    # give the zero-init W_f something to do
    shared["adapter.shared.W_f"].data[:] = 0.3
    for i in (1, 2):
        untied[f"adapter.layer{i:02d}.W_f"].data[:] = 0.3

    rng = np.random.default_rng(24)
    f = Tensor(rng.standard_normal((5, 8)))
    for i in (1, 2):
        d_s, q_s = A.rein_refine(i, f, shared)
        d_u, q_u = A.rein_refine(i, f, untied)
        assert d_s.data.tobytes() == d_u.data.tobytes()
        assert q_s.data.tobytes() == q_u.data.tobytes()


def test_full_chain_matches_procedure_transcription():
    # literal per-layer transcription of the training-procedure inner loop,
    # written in plain numpy
    cfg = cfg_toy()
    adapter = A.init_parameters(cfg, seed=25)
    adapter["adapter.shared.W_f"].data[:] = np.random.default_rng(26).standard_normal(
        (8, 8)).astype(np.float32) * 0.2
    rng = np.random.default_rng(27)
    f = rng.standard_normal((6, 8)).astype(np.float32)

    got_f = f.copy()
    got_deltas = []
    for i in (1, 2):
        d = adapter(i, Tensor(got_f))
        got_deltas.append(d.data)
        got_f = got_f + d.data
    got_q = adapter.aggregate_query().data

    w_t = adapter["adapter.shared.W_T"].data.astype(np.float64)
    b_t = adapter["adapter.shared.b_T"].data.astype(np.float64)
    w_f = adapter["adapter.shared.W_f"].data.astype(np.float64)
    b_f = adapter["adapter.shared.b_f"].data.astype(np.float64)
    w_q = adapter["adapter.shared.W_Q"].data.astype(np.float64)
    b_q = adapter["adapter.shared.b_Q"].data.astype(np.float64)
    ref_f = f.astype(np.float64)
    ref_qs = []
    for i in (1, 2):
        lp = f"adapter.layer{i:02d}."
        tok = adapter[lp + "A"].data.astype(np.float64) @ \
            adapter[lp + "B"].data.astype(np.float64)
        logits = ref_f @ tok.T / math.sqrt(cfg.c)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        dbar = s[:, 1:] @ (tok[1:] @ w_t + b_t)
        d = (dbar + ref_f) @ w_f + b_f
        ref_qs.append(tok @ w_q + b_q)
        np.testing.assert_allclose(got_deltas[i - 1], d, atol=1e-5)
        ref_f = ref_f + d
    q_cat = np.concatenate(
        [np.maximum(ref_qs[0], ref_qs[1]), (ref_qs[0] + ref_qs[1]) / 2, ref_qs[1]],
        axis=1)
    ref_q = q_cat @ adapter["adapter.final.W_Q_cat"].data.astype(np.float64) + \
        adapter["adapter.final.b_Q_cat"].data
    np.testing.assert_allclose(got_f, ref_f, atol=1e-5)
    np.testing.assert_allclose(got_q, ref_q, atol=1e-5)


def test_row_mass_bound():
    # standard-normal draws keep the excluded column's mass well above
    # float32 rounding, so the strict upper bound is observable
    rng = np.random.default_rng(30)
    for _ in range(50):
        f = Tensor(rng.standard_normal((6, 8)))
        tok = Tensor(rng.standard_normal((4, 8)))
        s = A.similarity_map(f, tok, 8).data.astype(np.float64)
        tail = s[:, 1:].sum(axis=1)
        assert np.all(tail >= 0.0) and np.all(tail < 1.0)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(6), atol=1e-6)


def test_share_gradient_equals_sum_of_untied():
    with T.using_dtype(np.float64):
        shared = A.init_parameters(cfg_toy(depth=3), seed=31)
        untied = A.init_parameters(cfg_toy(depth=3, use_share=False), seed=32)
        rngw = np.random.default_rng(33)
        w_f_val = rngw.standard_normal((8, 8)) * 0.2
        shared["adapter.shared.W_f"].data[:] = w_f_val
        for i in (1, 2, 3):
            lp = f"adapter.layer{i:02d}."
            for nm in ("A", "B"):
                untied[lp + nm].data[:] = shared[lp + nm].data
            for kind in ("T", "f", "Q"):
                untied[lp + f"W_{kind}"].data[:] = shared[f"adapter.shared.W_{kind}"].data
                untied[lp + f"b_{kind}"].data[:] = shared[f"adapter.shared.b_{kind}"].data

        f0 = np.random.default_rng(34).standard_normal((5, 8))

        def run(params):
            f = Tensor(f0)
            with Tape() as tape:
                for i in (1, 2, 3):
                    d, _ = A.rein_refine(i, f, params)
                    f = T.add(f, d)
                tape.backward(T.sum_all(f))

        run(shared)
        run(untied)
        total = sum(untied[f"adapter.layer{i:02d}.W_T"].grad for i in (1, 2, 3))
        assert T.relative_error(shared["adapter.shared.W_T"].grad, total) <= 1e-4

