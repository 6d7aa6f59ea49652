import numpy as np
import pytest

from refalign import tensor as T
from refalign.data import (BOS_ID, EOS_ID, MASK_ID, N_SPECIAL, PAD_ID,
                           STREAM_MASK, derive_rng)
from refalign.encoders import linear, scaled_dot_product_attention
from refalign.losses import LossConfig, fuse_loss, guide_loss, rec_loss
from refalign.reference import (LocalReconstructor, ReferenceBank,
                                ReferenceStage, mask_tokens)


def _rng(i=0):
    return derive_rng(77, 95, i)


# ------------------------------------------------------------ reference bank

def test_bank_shape_and_lookup():
    bank = ReferenceBank(3, 5, _rng())
    assert (bank.m, bank.d) == (3, 5)
    assert bank.ref.shape == (3, 5)
    np.testing.assert_array_equal(bank.rows_for([2, 0]).data, bank.ref.data[[2, 0]])
    assert bank.matrix() is bank.ref.data


def test_bank_init_statistics():
    bank = ReferenceBank(200, 64, _rng())
    assert 0.018 < float(bank.ref.data.std()) < 0.022
    assert abs(float(bank.ref.data.mean())) < 0.001


def test_bank_deterministic():
    a = ReferenceBank(10, 8, _rng(3))
    b = ReferenceBank(10, 8, _rng(3))
    c = ReferenceBank(10, 8, _rng(4))
    assert a.ref.data.tobytes() == b.ref.data.tobytes()
    assert a.ref.data.tobytes() != c.ref.data.tobytes()


def test_bank_validation():
    with pytest.raises(ValueError):
        ReferenceBank(0, 4, _rng())
    with pytest.raises(ValueError):
        ReferenceBank(2, 0, _rng())
    bank = ReferenceBank(2, 4, _rng())
    for labels, bad in (([0, 2], 2), ([-1, 1], -1)):
        with pytest.raises(KeyError, match=f"reference bank: identity {bad} has no row"):
            bank.rows_for(labels)


def test_rows_for_gradient_sparsity():
    bank = ReferenceBank(6, 4, _rng())
    picked = bank.rows_for([5, 5, 2])
    g = T.backward(T.sum_all(picked), wrt=[bank.ref])[bank.ref]
    np.testing.assert_array_equal(g[5], np.full(4, 2.0))  # duplicates add
    np.testing.assert_array_equal(g[2], np.ones(4))
    for row in (0, 1, 3, 4):
        np.testing.assert_array_equal(g[row], np.zeros(4))


def test_fusion_step_touches_only_batch_rows():
    bank = ReferenceBank(5, 4, _rng(1))
    before = bank.ref.data.copy()
    reps = T.l2_normalize(T.Tensor(_rng(2).normal(size=(4, 4))))
    opt = T.Adam([bank.ref])
    grads = T.backward(fuse_loss(bank, reps, [1, 1, 3, 3], LossConfig()),
                       wrt=[bank.ref])
    opt.step(grads, lr=1e-2)
    for row in (0, 2, 4):
        np.testing.assert_array_equal(bank.ref.data[row], before[row])
    assert np.any(bank.ref.data[1] != before[1])
    assert np.any(bank.ref.data[3] != before[3])


def test_guidance_step_never_moves_the_bank():
    bank = ReferenceBank(5, 4, _rng(3))
    before = bank.ref.data.copy()
    reps = T.l2_normalize(T.Tensor(_rng(4).normal(size=(4, 4))))
    opt = T.Adam([bank.ref])
    grads = T.backward(guide_loss(reps, bank, [1, 1, 3, 3], LossConfig()),
                       wrt=[bank.ref])
    opt.step(grads, lr=1e-2)
    np.testing.assert_array_equal(bank.ref.data, before)


# ----------------------------------------------------------------- masking

def _tokens(n_values):
    body = [x for v in n_values for x in v]
    return np.array([BOS_ID, *body, EOS_ID], dtype=np.int64)


def test_mask_count_rule():
    tokens = np.array([BOS_ID] + [N_SPECIAL + i for i in range(10)] + [EOS_ID],
                      dtype=np.int64)
    for ratio, want in ((0.15, 2), (0.5, 5), (0.04, 1), (1.0, 10)):
        out = mask_tokens(tokens, ratio, _rng(5))
        assert out.positions.size == want


def test_mask_never_touches_specials():
    tokens = np.array([BOS_ID, PAD_ID, N_SPECIAL, N_SPECIAL + 1, EOS_ID],
                      dtype=np.int64)
    for trial in range(50):
        out = mask_tokens(tokens, 1.0, _rng(trial))
        assert set(out.positions.tolist()) == {2, 3}
        np.testing.assert_array_equal(out.tokens[[0, 1, 4]], tokens[[0, 1, 4]])
        assert np.all(out.tokens[out.positions] == MASK_ID)
        np.testing.assert_array_equal(out.targets, tokens[out.positions])


def test_mask_positions_sorted_unique_and_restorable():
    tokens = np.array([BOS_ID] + [N_SPECIAL + i % 7 for i in range(12)] + [EOS_ID],
                      dtype=np.int64)
    out = mask_tokens(tokens, 0.5, _rng(6))
    assert np.all(np.diff(out.positions) > 0)
    restored = out.tokens.copy()
    restored[out.positions] = out.targets
    np.testing.assert_array_equal(restored, tokens)
    off = np.setdiff1d(np.arange(tokens.size), out.positions)
    np.testing.assert_array_equal(out.tokens[off], tokens[off])


def test_mask_ratio_zero_is_identity():
    tokens = _tokens([(4, 10), (5, 11)])
    out = mask_tokens(tokens, 0.0, _rng(7))
    np.testing.assert_array_equal(out.tokens, tokens)
    assert out.positions.size == 0 and out.targets.size == 0


def test_mask_nothing_maskable():
    out = mask_tokens(np.array([BOS_ID, EOS_ID], dtype=np.int64), 0.15, _rng(8))
    assert out.positions.size == 0
    np.testing.assert_array_equal(out.tokens, [BOS_ID, EOS_ID])


def test_mask_seeding():
    tokens = np.array([BOS_ID] + [N_SPECIAL + i % 5 for i in range(20)] + [EOS_ID],
                      dtype=np.int64)
    a = mask_tokens(tokens, 0.3, derive_rng(123, STREAM_MASK))
    b = mask_tokens(tokens, 0.3, derive_rng(123, STREAM_MASK))
    np.testing.assert_array_equal(a.positions, b.positions)
    seen = {mask_tokens(tokens, 0.3, derive_rng(s, STREAM_MASK)).positions.tobytes()
            for s in range(20)}
    assert len(seen) > 1


def test_mask_validation():
    tokens = _tokens([(4, 10)])
    with pytest.raises(ValueError):
        mask_tokens(tokens, -0.1, _rng())
    with pytest.raises(ValueError):
        mask_tokens(tokens, 1.1, _rng())
    with pytest.raises(ValueError):
        mask_tokens(np.empty(0, dtype=np.int64), 0.15, _rng())
    with pytest.raises(ValueError):
        mask_tokens(np.ones((2, 2), dtype=np.int64), 0.15, _rng())


# ------------------------------------------------------------- reconstructor

def _recon(d=8, heads=2, vocab=13, seed=9, **kw):
    return LocalReconstructor(d, heads, vocab, _rng(seed), **kw)


def test_reconstructor_output_contract():
    recon = _recon()
    rng = _rng(10)
    states = T.Tensor(rng.normal(size=(2, 5, 8)))
    refs = T.Tensor(rng.normal(size=(2, 8)))
    rows, cols = np.array([0, 0, 1]), np.array([1, 3, 2])
    probs = recon(states, refs, rows, cols)
    assert probs.shape == (3, 13)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(probs.data > 0.0)


def test_reconstructor_uses_the_reference():
    recon = _recon(seed=11)
    rng = _rng(12)
    states = T.Tensor(rng.normal(size=(1, 4, 8)))
    rows, cols = np.array([0]), np.array([2])
    a = recon(states, T.Tensor(rng.normal(size=(1, 8))), rows, cols)
    b = recon(states, T.Tensor(rng.normal(size=(1, 8))), rows, cols)
    assert a.data.tobytes() != b.data.tobytes()


def test_reconstructor_single_token_vocabulary():
    recon = _recon(vocab=1, seed=13)
    rng = _rng(14)
    probs = recon(T.Tensor(rng.normal(size=(1, 3, 8))),
                  T.Tensor(rng.normal(size=(1, 8))),
                  np.array([0]), np.array([1]))
    np.testing.assert_array_equal(probs.data, [[1.0]])
    assert rec_loss(probs, [0]).item() == 0.0


def test_reconstructor_validation():
    recon = _recon()
    rng = _rng(15)
    states = T.Tensor(rng.normal(size=(2, 5, 8)))
    refs = T.Tensor(rng.normal(size=(2, 8)))
    with pytest.raises(T.ShapeError):
        recon(states, T.Tensor(rng.normal(size=(3, 8))), [0], [0])
    with pytest.raises(T.ShapeError):
        recon(states, refs, [], [])
    with pytest.raises(T.ShapeError):
        recon(states, refs, [0, 1], [0])
    with pytest.raises(T.ShapeError):
        recon(states, refs, [2], [0])
    with pytest.raises(T.ShapeError):
        recon(states, refs, [0], [5])
    with pytest.raises(T.ShapeError):
        recon(T.Tensor(rng.normal(size=(2, 5, 4))), refs, [0], [0])
    with pytest.raises(ValueError):
        _recon(n_stages=0)


def test_reconstructor_trains_through_masked_positions():
    recon = _recon(d=4, heads=2, vocab=6, seed=16, n_stages=1)
    rng = _rng(17)
    states = T.Tensor(rng.normal(size=(1, 3, 4)))
    refs = T.parameter(rng.normal(size=(1, 4)))

    def f():
        return rec_loss(recon(states, refs, [0], [1]), [3])

    assert T.finite_difference_check(f, [refs, recon.w_head]) < 1e-4


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_reference_stage_is_one_row_cross_attention():
    # the stage against the cross-attention block it replaces, on the
    # same weights: queries from a normed copy of x, one key row and one
    # value row per sample projected from the reference
    d, heads, B, L = 8, 2, 2, 5
    rng = _rng(18)
    stage = ReferenceStage(d, rng, "s")
    for p in stage.parameters():
        p.data[...] += rng.normal(scale=0.3, size=p.shape)
    x = T.parameter(rng.normal(size=(B, L, d)))
    refs = T.parameter(rng.normal(size=(B, d)))
    w_val, b_val = T.parameter(rng.normal(size=(d, d))), T.parameter(rng.normal(size=d))
    ln1_g, ln1_b = T.parameter(rng.normal(size=d)), T.parameter(rng.normal(size=d))
    wq, bq = T.parameter(rng.normal(size=(d, d))), T.parameter(rng.normal(size=d))
    w_key, b_key = T.parameter(rng.normal(size=(d, d))), T.parameter(rng.normal(size=d))
    probe = T.Tensor(rng.normal(size=(B, L, d)))

    def old_block():
        ref_rows = T.reshape(refs, (B, 1, d))
        q = linear(T.layer_norm(x, ln1_g, ln1_b), wq, bq)
        a = scaled_dot_product_attention(q, linear(ref_rows, w_key, b_key),
                                         linear(ref_rows, w_val, b_val), heads)
        return stage.ffn(T.add(x, linear(a, stage.wo, stage.bo)))

    def new_stage():
        return stage(x, linear(refs, w_val, b_val))

    shared = [x, refs, w_val, b_val] + stage.parameters()
    dead = [ln1_g, ln1_b, wq, bq, w_key, b_key]
    old, new = old_block(), new_stage()
    assert _rel_err(new.data, old.data) <= 1e-12
    g_old = T.backward(T.sum_all(T.mul(old, probe)), wrt=shared + dead)
    g_new = T.backward(T.sum_all(T.mul(new, probe)), wrt=shared)
    for leaf in shared:
        assert _rel_err(g_new[leaf], g_old[leaf]) <= 1e-12
    for leaf in dead:                 # why the old form's leaves were dropped
        np.testing.assert_array_equal(g_old[leaf], np.zeros(leaf.shape))
