import numpy as np
import pytest

from refalign import tensor as T
from refalign.data import BOS_ID, EOS_ID, N_SPECIAL, derive_rng
from refalign.encoders import (AttentionBlock, EncoderConfig, ImageEncoder,
                               TextEncoder)


def _cfg(**kw):
    base = dict(d=16, n_blocks=2, n_heads=4, vocab_size=20, max_seq_len=12)
    base.update(kw)
    return EncoderConfig(**base)


def _text(seed=0, **kw):
    return TextEncoder(_cfg(**kw), derive_rng(seed, 91))


def _image(seed=0, **kw):
    return ImageEncoder(_cfg(**kw), 10, derive_rng(seed, 92))


def _seq(*body):
    return np.array([BOS_ID, *body, EOS_ID], dtype=np.int64)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(d=18)                 # not a multiple of n_heads
    with pytest.raises(ValueError):
        _cfg(d=0)
    with pytest.raises(ValueError):
        _cfg(vocab_size=3)
    with pytest.raises(ValueError):
        _cfg(max_seq_len=1)
    with pytest.raises(ValueError):
        _cfg(n_blocks=0)


# ------------------------------------------------------------ attention core

def test_attention_single_key_returns_value():
    rng = derive_rng(3, 93)
    q = T.Tensor(rng.normal(size=(2, 3, 8)))
    k = T.Tensor(rng.normal(size=(2, 1, 8)))
    v = T.Tensor(rng.normal(size=(2, 1, 8)))
    out = T.attention(q, k, v, n_heads=2)
    expect = np.broadcast_to(v.data, (2, 3, 8))
    np.testing.assert_array_equal(out.data, expect)


def test_attention_identical_keys_average_values():
    rng = derive_rng(4, 93)
    q = T.Tensor(rng.normal(size=(1, 2, 8)))
    k = T.Tensor(np.repeat(rng.normal(size=(1, 1, 8)), 5, axis=1))
    v = T.Tensor(rng.normal(size=(1, 5, 8)))
    out = T.attention(q, k, v, n_heads=2)
    # equal logits -> uniform weights over values, per head slice
    expect = np.broadcast_to(v.data.mean(axis=1, keepdims=True), (1, 2, 8))
    np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)


def test_attention_shape_validation():
    x = T.Tensor(np.ones((2, 3, 8)))
    with pytest.raises(T.ShapeError):
        T.attention(T.Tensor(np.ones((3, 8))), x, x, 2)
    with pytest.raises(T.ShapeError):
        T.attention(x, T.Tensor(np.ones((2, 3, 6))), x, 2)
    with pytest.raises(T.ShapeError):
        T.attention(x, x, T.Tensor(np.ones((2, 4, 8))), 2)
    with pytest.raises(T.ShapeError):
        T.attention(x, x, x, 3)
    with pytest.raises(T.ShapeError):
        T.attention(x, x, x, 2, key_mask=np.ones((2, 4), bool))


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("masked", [False, True])
def test_key_bias_leaves_attention_unchanged(masked):
    # q.b shifts a whole softmax row by one constant, which the softmax
    # cancels: a key bias can neither change the output nor learn
    rng = derive_rng(5, 93)
    q = T.Tensor(rng.normal(size=(2, 3, 8)))
    k = T.Tensor(rng.normal(size=(2, 4, 8)))
    v = T.Tensor(rng.normal(size=(2, 4, 8)))
    b = T.parameter(rng.normal(size=8))
    mask = np.array([[True, True, True, False], [True, True, False, False]]) \
        if masked else None
    plain = T.attention(q, k, v, 2, mask)
    biased = T.attention(q, T.add(k, b), v, 2, mask)
    assert _rel_err(biased.data, plain.data) <= 1e-12
    w = T.Tensor(rng.normal(size=plain.shape))
    g = T.backward(T.sum_all(T.mul(biased, w)), wrt=[b])[b]
    assert float(np.max(np.abs(g))) <= 1e-12


def test_attention_block_parameters():
    blk = AttentionBlock(8, 2, derive_rng(5, 93), name="b")
    names = [p.name for p in blk.parameters()]
    assert names == ["b.ln1.g", "b.ln1.b", "b.wq", "b.bq", "b.wk", "b.wv",
                     "b.bv", "b.wo", "b.bo", "b.ffn.ln.g", "b.ffn.ln.b",
                     "b.ffn.w1", "b.ffn.b1", "b.ffn.w2", "b.ffn.b2"]


# ------------------------------------------------------------- text encoder

def test_text_outputs_unit_norm():
    enc = _text()
    seqs = [_seq(5, 9), _seq(7), _seq(4, 4, 12, 6)]
    pooled, states, mask = enc.encode_batch(seqs)
    np.testing.assert_allclose(np.linalg.norm(pooled.data, axis=-1), 1.0,
                               rtol=0, atol=1e-12)
    assert states.shape == (3, 6, 16)
    assert mask.shape == (3, 6)
    np.testing.assert_array_equal(mask.sum(axis=1), [4, 3, 6])


def test_text_single_sequence_shapes():
    enc = _text()
    g, states, _ = enc.encode_batch([_seq(5, 9)])
    assert g.shape == (1, 16)
    assert states.shape == (1, 4, 16)


def test_padded_batching_matches_one_by_one():
    enc = _text(seed=11)
    seqs = [_seq(5, 9, 13), _seq(7), _seq(4, 4)]
    pooled, _, _ = enc.encode_batch(seqs)
    for i, s in enumerate(seqs):
        alone, _, _ = enc.encode_batch([s])
        np.testing.assert_allclose(pooled.data[i], alone.data[0], rtol=0, atol=1e-12)


def test_text_encoder_deterministic():
    a, _, _ = _text(seed=2).encode_batch([_seq(5, 9)])
    b, _, _ = _text(seed=2).encode_batch([_seq(5, 9)])
    assert a.data.tobytes() == b.data.tobytes()


def test_token_swap_moves_the_global():
    enc = _text(seed=3)
    a, _, _ = enc.encode_batch([_seq(5, 9)])
    b, _, _ = enc.encode_batch([_seq(9, 5)])
    assert float(a.data[0] @ b.data[0]) < 1.0 - 1e-9


def test_text_validation():
    enc = _text()
    with pytest.raises(T.ShapeError):
        enc.encode_batch([])
    with pytest.raises(T.ShapeError):
        enc.encode_batch([np.array([], dtype=np.int64)])
    with pytest.raises(T.ShapeError):
        enc.encode_batch([np.array([BOS_ID, 20, EOS_ID])])         # out of vocab
    with pytest.raises(T.ShapeError):
        enc.encode_batch([np.array([BOS_ID, -1, EOS_ID])])
    with pytest.raises(T.ShapeError):
        enc.encode_batch([np.full(13, N_SPECIAL, dtype=np.int64)])  # too long
    with pytest.raises(T.ShapeError):
        enc.encode_batch([np.ones((2, 3), dtype=np.int64)])


def test_non_integer_token_ids_are_refused():
    # a float id is refused, never truncated: 5.7 is not token 5
    enc = _text()
    for batch in ([np.array([BOS_ID, 5.7, EOS_ID])],
                  [_seq(5), np.array([BOS_ID, 5.0, EOS_ID])],
                  [np.array([True, False])]):
        with pytest.raises(T.ShapeError, match="token ids must be integers"):
            enc.encode_batch(batch)


def test_packing_pins_mask_and_first_eos_pooling():
    enc = _text(seed=12)
    n = enc.cfg.max_seq_len
    rng = derive_rng(13, 93)
    seqs = [_seq(*rng.integers(N_SPECIAL, 20, size=size - 2)) for size in range(2, n + 1)]
    seqs.append(np.array([BOS_ID, 5, 9, 7], dtype=np.int64))               # no EOS
    seqs.append(np.array([BOS_ID, 5, EOS_ID, 9, 7, EOS_ID], dtype=np.int64))  # early EOS
    pooled, states, mask = enc.encode_batch(seqs)
    sizes = np.array([s.size for s in seqs])
    np.testing.assert_array_equal(mask, np.arange(n) < sizes[:, None])
    at = [list(s).index(EOS_ID) if EOS_ID in s else s.size - 1 for s in seqs]
    assert at[-2:] == [3, 2]
    want = T.l2_normalize(T.take(states, np.arange(len(seqs)), np.array(at)))
    assert np.array_equal(pooled.data, want.data)
    for i, s in enumerate(seqs):
        alone, _, _ = enc.encode_batch([s])
        np.testing.assert_allclose(pooled.data[i], alone.data[0], rtol=0, atol=1e-12)
    # narrower integer ids pack to the same batch
    narrow, _, _ = enc.encode_batch([s.astype(np.int32) for s in seqs])
    assert np.array_equal(narrow.data, pooled.data)


def test_no_eos_sequence_still_pools():
    enc = _text()
    seq = np.array([BOS_ID, 5, 9], dtype=np.int64)
    g, _, _ = enc.encode_batch([seq])
    assert np.isfinite(g.data).all()
    np.testing.assert_allclose(np.linalg.norm(g.data), 1.0, rtol=0, atol=1e-12)


# ------------------------------------------------------------ image encoder

def test_image_outputs_unit_norm_and_shapes():
    enc = _image()
    rng = derive_rng(6, 93)
    feats = rng.normal(size=(5, 10))
    out = enc.encode_batch(feats)
    assert out.shape == (5, 16)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0,
                               rtol=0, atol=1e-12)
    one = enc.encode_batch(feats[2:3])
    np.testing.assert_allclose(one.data[0], out.data[2], rtol=0, atol=1e-12)


def test_image_validation():
    enc = _image()
    with pytest.raises(T.ShapeError):
        enc.encode_batch(np.ones((2, 9)))
    with pytest.raises(T.ShapeError):
        enc.encode_batch(np.ones(10))
    # all-zero input gives the zero vector before normalization
    with pytest.raises(T.NumericsError):
        enc.encode_batch(np.zeros((1, 10)))


def test_image_encoder_deterministic():
    feats = derive_rng(7, 93).normal(size=(3, 10))
    a = _image(seed=4).encode_batch(feats)
    b = _image(seed=4).encode_batch(feats)
    assert a.data.tobytes() == b.data.tobytes()


def test_encoders_trainable_end_to_end():
    enc = _text(seed=8, d=8, n_heads=2, n_blocks=1, vocab_size=8, max_seq_len=6)

    def f():
        pooled, _, _ = enc.encode_batch([_seq(4, 5), _seq(6)])
        return T.sum_all(pooled)

    err = T.finite_difference_check(f, [enc.tok_emb, enc.pos_emb], step=3e-5)
    assert err < 1e-4
