"""Refinement adapter: init contract, chain math vs oracles, sharing."""

import math
from dataclasses import replace

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


def make(cfg, seed=0):
    return A.ReinAdapter(cfg, np.random.default_rng(seed))


def all_tokens(adapter):
    """[T_1, ..., T_N], the list ``aggregate_query`` fuses."""
    return [adapter.tokens(i) for i in range(1, adapter.cfg.depth + 1)]


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
    params = make(cfg_toy()).params
    assert np.all(params["adapter.shared.W_f"].data == 0.0)
    for name in ("b_T", "b_f", "b_Q"):
        assert np.all(params[f"adapter.shared.{name}"].data == 0.0)
    assert np.all(params["adapter.final.b_Q_cat"].data == 0.0)
    bound = 1.0 / math.sqrt(2)
    a1 = params["adapter.layer01.A"].data
    assert np.all(np.abs(a1) < bound)
    assert np.any(a1 != 0.0)


def test_init_seed_sensitivity():
    a1 = make(cfg_toy(), seed=1).params["adapter.layer01.A"].data
    a2 = make(cfg_toy(), seed=2).params["adapter.layer01.A"].data
    assert np.all(a1 != a2)


def test_init_rank_one_tokens():
    cfg = A.ReinConfig(c=4, depth=1, m=2, r=1, c_prime=4)
    assert elimination_rank(make(cfg, seed=3).tokens(1).data) <= 1


def test_shared_storage_is_single_slot():
    adapter = make(cfg_toy())
    w1, _ = adapter.mlp("T", 1)
    w2, _ = adapter.mlp("T", 2)
    assert w1 is w2
    untied = make(cfg_toy(use_share=False))
    assert untied.mlp("T", 1)[0] is not untied.mlp("T", 2)[0]


# ---------------------------------------------------------------------------
# token materialization


def test_materialize_hand_product():
    adapter = make(A.ReinConfig(c=2, depth=1, m=2, r=1, c_prime=2))
    adapter.params["adapter.layer01.A"].data[:] = [[1.0], [0.0]]
    adapter.params["adapter.layer01.B"].data[:] = [[2.0, 3.0]]
    np.testing.assert_array_equal(adapter.tokens(1).data, [[2.0, 3.0], [0.0, 0.0]])


def test_materialize_rank_bound_large():
    cfg = A.ReinConfig(c=1024, depth=1, m=100, r=16, c_prime=256)
    assert elimination_rank(make(cfg, seed=7).tokens(1).data, tol=1e-4) <= 16


# ---------------------------------------------------------------------------
# similarity map


def test_similarity_uniform_for_zero_features():
    tokens = make(cfg_toy(), seed=1).tokens(1)
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
    """One layer of a core adapter whose tensors are set by hand; returns
    (delta, f) as float32 arrays."""
    m, c = tokens.shape
    adapter = make(A.ReinConfig.from_variant("rein-core", c=c, depth=1, m=m))
    for name, value in (("T", tokens), ("W_T", w_t), ("b_T", b_t),
                        ("W_f", w_f), ("b_f", b_f)):
        adapter.params[f"adapter.layer01.{name}"].data[:] = value
    f = Tensor(f)
    return adapter(1, f, adapter.tokens(1)).data, f.data


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


def test_layer_query_matches_matmul_oracle():
    # a fusion map that picks out the last-layer block exposes Q_N = T_N W_Q + b_Q
    cfg = A.ReinConfig.from_variant("rein-link", c=8, depth=2, m=4, c_prime=4)
    adapter = make(cfg, seed=11)
    p = adapter.params
    rng = np.random.default_rng(11)
    p["adapter.layer02.b_Q"].data[:] = rng.standard_normal(4)
    p["adapter.final.W_Q_cat"].data[:] = np.vstack([np.zeros((8, 4)), np.eye(4)])
    want = p["adapter.layer02.T"].data.astype(np.float64) @ p["adapter.layer02.W_Q"].data \
        + p["adapter.layer02.b_Q"].data
    assert np.max(np.abs(adapter.aggregate_query(all_tokens(adapter)).data - want)) <= 1e-6


def test_aggregate_single_layer_collapse():
    # with one layer, max, mean and last are all Q_1
    adapter = make(cfg_toy(depth=1), seed=12)
    rng = np.random.default_rng(12)
    for name in ("adapter.shared.b_Q", "adapter.final.b_Q_cat"):
        adapter.params[name].data[:] = rng.standard_normal(4)
    p = {n: t.data.astype(np.float64) for n, t in adapter.params.items()}
    q1 = (p["adapter.layer01.A"] @ p["adapter.layer01.B"] @ p["adapter.shared.W_Q"]
          + p["adapter.shared.b_Q"])
    want = np.concatenate([q1] * 3, axis=1) @ p["adapter.final.W_Q_cat"] + \
        p["adapter.final.b_Q_cat"]
    np.testing.assert_allclose(adapter.aggregate_query(all_tokens(adapter)).data, want,
                               atol=1e-5)


def test_aggregate_hand_max_avg():
    q1, q2 = Tensor([[1.0]]), Tensor([[3.0]])
    assert T.stack_max([q1, q2]).item() == 3.0
    assert T.stack_mean([q1, q2]).item() == 2.0


def test_aggregate_empty_rejected():
    # the fusion needs one token set per layer: none, too few or too many
    # are refused
    adapter = make(cfg_toy())
    tokens = all_tokens(adapter)
    for wrong in ([], tokens[:1], tokens + tokens[:1]):
        with pytest.raises(ContractError, match="token sets"):
            adapter.aggregate_query(wrong)


def test_aggregate_requires_link():
    adapter = make(cfg_toy(use_link=False))
    with pytest.raises(ContractError, match="link"):
        adapter.aggregate_query(all_tokens(adapter))


def test_aggregate_max_gradient_routing_vs_fd():
    with T.using_dtype(np.float64):
        cfg = A.ReinConfig.from_variant("rein-link", c=4, depth=3, m=3, c_prime=2)
        adapter = make(cfg, seed=13)
        probe = Tensor(np.random.default_rng(13).uniform(-1, 1, (3, 2)))

        def loss(_tokens):
            return T.sum_all(T.mul(adapter.aggregate_query(all_tokens(adapter)), probe))

        with Tape() as tape:
            tape.backward(loss(None))
        for i in (1, 2, 3):
            tok = adapter.params[f"adapter.layer{i:02d}.T"]
            num = T.finite_difference_gradient(loss, tok, h=1e-3)
            assert T.relative_error(tok.grad, num.data) <= 1e-3


# ---------------------------------------------------------------------------
# full refinement


def test_fresh_init_is_identity():
    adapter = make(cfg_toy(), seed=20)
    rng = np.random.default_rng(21)
    for i in (1, 2):
        delta = adapter(i, Tensor(rng.standard_normal((6, 8))), adapter.tokens(i))
        assert np.all(delta.data == 0.0)
    assert adapter.aggregate_query(all_tokens(adapter)).shape == (4, 4)


def untie(shared):
    """An untied copy of a shared adapter: every layer's MLP set to the
    shared values."""
    cfg = shared.cfg
    untied = make(replace(cfg, use_share=False))
    s, u = shared.params, untied.params
    for i in range(1, cfg.depth + 1):
        lp = f"adapter.layer{i:02d}."
        for nm in ("A", "B"):
            u[lp + nm].data[:] = s[lp + nm].data
        for kind in ("T", "f", "Q"):
            u[lp + f"W_{kind}"].data[:] = s[f"adapter.shared.W_{kind}"].data
            u[lp + f"b_{kind}"].data[:] = s[f"adapter.shared.b_{kind}"].data
    for nm in ("W_Q_cat", "b_Q_cat"):
        u["adapter.final." + nm].data[:] = s["adapter.final." + nm].data
    return untied


def test_share_tying_equivalence():
    # untied adapter with every layer's MLP forced to the shared values must
    # produce bitwise-identical deltas and queries
    shared = make(cfg_toy(), seed=22)
    # give the zero-init W_f something to do
    shared.params["adapter.shared.W_f"].data[:] = 0.3
    untied = untie(shared)

    f = Tensor(np.random.default_rng(24).standard_normal((5, 8)))
    for i in (1, 2):
        assert shared(i, f, shared.tokens(i)).data.tobytes() == \
            untied(i, f, untied.tokens(i)).data.tobytes()
    assert shared.aggregate_query(all_tokens(shared)).data.tobytes() == \
        untied.aggregate_query(all_tokens(untied)).data.tobytes()


def test_full_chain_matches_procedure_transcription():
    # literal per-layer transcription of the training-procedure inner loop,
    # written in plain numpy
    cfg = cfg_toy()
    adapter = make(cfg, seed=25)
    adapter.params["adapter.shared.W_f"].data[:] = np.random.default_rng(26).standard_normal(
        (8, 8)).astype(np.float32) * 0.2
    rng = np.random.default_rng(27)
    f = rng.standard_normal((6, 8)).astype(np.float32)

    got_f = f.copy()
    got_deltas = []
    for i in (1, 2):
        d = adapter(i, Tensor(got_f), adapter.tokens(i))
        got_deltas.append(d.data)
        got_f = got_f + d.data
    got_q = adapter.aggregate_query(all_tokens(adapter)).data

    p = {n: t.data.astype(np.float64) for n, t in adapter.params.items()}
    w_t, b_t = p["adapter.shared.W_T"], p["adapter.shared.b_T"]
    w_f, b_f = p["adapter.shared.W_f"], p["adapter.shared.b_f"]
    w_q, b_q = p["adapter.shared.W_Q"], p["adapter.shared.b_Q"]
    ref_f = f.astype(np.float64)
    ref_qs = []
    for i in (1, 2):
        lp = f"adapter.layer{i:02d}."
        tok = p[lp + "A"] @ p[lp + "B"]
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
    ref_q = q_cat @ p["adapter.final.W_Q_cat"] + p["adapter.final.b_Q_cat"]
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
        shared = make(cfg_toy(depth=3), seed=31)
        shared.params["adapter.shared.W_f"].data[:] = \
            np.random.default_rng(33).standard_normal((8, 8)) * 0.2
        untied = untie(shared)
        f0 = np.random.default_rng(34).standard_normal((5, 8))

        def run(adapter):
            f = Tensor(f0)
            with Tape() as tape:
                for i in (1, 2, 3):
                    f = T.add(f, adapter(i, f, adapter.tokens(i)))
                tape.backward(T.sum_all(f))

        run(shared)
        run(untied)
        total = sum(untied.params[f"adapter.layer{i:02d}.W_T"].grad for i in (1, 2, 3))
        assert T.relative_error(shared.params["adapter.shared.W_T"].grad, total) <= 1e-4
