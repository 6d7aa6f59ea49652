"""The fused nodes against the chains of single ops they replace, bitwise.

linear and feed_forward are checked against the same layer built from
matmul, add, tanh and layer_norm.  attention is checked against a numpy
transcription of the 14-node chain it replaced (head split, permutes
with contiguous copies, batched matmul, scale, mask bias, row softmax,
batched matmul, head merge) and of that chain's vector-Jacobian products.
Shapes are the trend config's (batch 16, d 32, 4 heads, padded keys) and
one evaluation chunk of ENCODE_CHUNK captions.
"""
import math

import numpy as np
import pytest

from refalign import tensor as T
from refalign.data import derive_rng
from refalign.evaluation import ENCODE_CHUNK

D, HEADS = 32, 4
BATCHES = [(16, 24), (16, 13), (ENCODE_CHUNK, 24)]


def _same(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _inputs(seed, B, L):
    rng = derive_rng(seed, 97, B, L)
    lengths = rng.integers(2, L + 1, size=B)
    lengths[0] = L
    mask = np.arange(L)[None, :] < lengths[:, None]
    return rng, mask


def _weight(rng, fan_in, fan_out):
    return T.parameter(rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out)))


def _grads(out, probe, wrt):
    g = T.backward(T.sum_all(T.mul(out, T.Tensor(probe))), wrt=wrt)
    return [g[t] for t in wrt]


@pytest.mark.parametrize("B,L", BATCHES)
def test_linear_equals_matmul_then_add(B, L):
    rng, _ = _inputs(1, B, L)
    w, b = _weight(rng, D, 3 * D), T.parameter(rng.normal(size=3 * D))
    for x in (T.parameter(rng.normal(size=(B, L, D))), T.parameter(rng.normal(size=(B, D)))):
        probe = rng.normal(size=x.shape[:-1] + (3 * D,))
        fused, chain = T.linear(x, w, b), T.add(T.matmul(x, w), b)
        _same(fused.data, chain.data)
        for got, want in zip(_grads(fused, probe, [x, w, b]), _grads(chain, probe, [x, w, b])):
            _same(got, want)


def _ffn_chain(x, g, b, w1, b1, w2, b2):
    h = T.layer_norm(x, g, b)
    return T.add(x, T.add(T.matmul(T.tanh(T.add(T.matmul(h, w1), b1)), w2), b2))


@pytest.mark.parametrize("B,L", BATCHES)
def test_feed_forward_equals_its_chain(B, L):
    rng, _ = _inputs(2, B, L)
    x = T.parameter(rng.normal(size=(B, L, D)))
    params = [T.parameter(1.0 + 0.1 * rng.normal(size=D)), T.parameter(0.1 * rng.normal(size=D)),
              _weight(rng, D, 4 * D), T.parameter(0.1 * rng.normal(size=4 * D)),
              _weight(rng, 4 * D, D), T.parameter(0.1 * rng.normal(size=D))]
    probe = rng.normal(size=x.shape)
    fused, chain = T.feed_forward(x, *params), _ffn_chain(x, *params)
    _same(fused.data, chain.data)
    wrt = [x] + params
    for got, want in zip(_grads(fused, probe, wrt), _grads(chain, probe, wrt)):
        _same(got, want)


def _attention_chain(q, k, v, heads, mask, g):
    """Forward and backward of the deleted chain, node by node."""
    B, Lq, d = q.shape
    Lk = k.shape[1]
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    qh, kh, vh = (np.transpose(a.reshape(B, a.shape[1], heads, dh), (0, 2, 1, 3)).copy()
                  for a in (q, k, v))                            # reshape, permute
    kt = np.transpose(kh, (0, 1, 3, 2)).copy()                   # permute
    s = (qh @ kt) * c                                            # matmul, scale
    if mask is not None:                                         # add a constant bias
        s = s + np.broadcast_to(np.where(mask, 0.0, -1e30)[:, None, None, :], s.shape)
    e = np.exp(s - s.max(axis=-1, keepdims=True))                # row_softmax
    att = e / e.sum(axis=-1, keepdims=True)
    o = att @ vh                                                 # matmul
    out = np.transpose(o, (0, 2, 1, 3)).copy().reshape(B, Lq, d)  # permute, reshape

    go = np.transpose(g.reshape(B, Lq, heads, dh), (0, 2, 1, 3))  # reshape, permute
    g_att = go @ np.swapaxes(vh, -1, -2)                         # matmul
    g_vh = np.swapaxes(att, -1, -2) @ go
    gs = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True))  # row_softmax
    gs = gs * c                                                  # the bias add passes g on
    g_qh = gs @ np.swapaxes(kt, -1, -2)                          # matmul
    g_kt = np.swapaxes(qh, -1, -2) @ gs
    g_kh = np.transpose(g_kt, (0, 1, 3, 2))                      # permute

    def merge(a, L):                                             # permute, reshape
        return np.transpose(a, (0, 2, 1, 3)).reshape(B, L, d)

    return out, merge(g_qh, Lq), merge(g_kh, Lk), merge(g_vh, Lk)


@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("B,L", BATCHES)
def test_attention_equals_the_deleted_chain(B, L, masked):
    rng, mask = _inputs(3, B, L)
    mask = mask if masked else None
    # the projections' outputs: contiguous (B, L, d) arrays as linear makes them
    q, k, v = (T.parameter(rng.normal(size=(B, L, D))) for _ in range(3))
    probe = rng.normal(size=(B, L, D))
    out = T.attention(q, k, v, HEADS, mask)
    want = _attention_chain(q.data, k.data, v.data, HEADS, mask, probe)
    _same(out.data, want[0])
    for got, w in zip(_grads(out, probe, [q, k, v]), want[1:]):
        _same(got, w)


def test_shared_input_accumulates_in_the_chain_order():
    # q, k and v projected from one h: h's gradient sums the three
    # shares in the order backward reached them before fusion, (q + k) + v
    B, L = 16, 24
    rng, mask = _inputs(4, B, L)
    h = T.parameter(rng.normal(size=(B, L, D)))
    wq, wk, wv = (_weight(rng, D, D) for _ in range(3))
    bq, bv = T.parameter(rng.normal(size=D)), T.parameter(rng.normal(size=D))
    probe = rng.normal(size=(B, L, D))
    q, k, v = T.linear(h, wq, bq), T.matmul(h, wk), T.linear(h, wv, bv)
    got = _grads(T.attention(q, k, v, HEADS, mask), probe, [h])[0]
    _, gq, gk, gv = _attention_chain(q.data, k.data, v.data, HEADS, mask, probe)
    want = (gq @ wq.data.T + gk @ wk.data.T) + gv @ wv.data.T
    _same(got, want)


def test_backward_runs_again_on_the_same_graph():
    rng, mask = _inputs(5, 4, 6)
    q, k, v = (T.parameter(rng.normal(size=(4, 6, 8))) for _ in range(3))
    loss = T.sum_all(T.mul(T.attention(q, k, v, 2, mask), T.Tensor(rng.normal(size=(4, 6, 8)))))
    first = T.backward(loss, wrt=[q, k, v])
    second = T.backward(loss, wrt=[q, k, v])
    for t in (q, k, v):
        _same(second[t], first[t])


# ------------------------------------------------- values a later stage hides

def test_attention_refuses_an_infinite_score_the_softmax_would_hide():
    q = np.zeros((1, 2, 8))
    q[..., :2] = 1e200
    k = np.zeros((1, 3, 8))
    k[0, 1, :2] = -1e200     # this key's score overflows to -inf
    with np.errstate(over="ignore"):
        qh = q.reshape(1, 2, 2, 4).transpose(0, 2, 1, 3)
        kh = k.reshape(1, 3, 2, 4).transpose(0, 2, 1, 3)
        scores = qh @ np.swapaxes(kh, -1, -2)
        assert np.isneginf(scores).any()
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    assert np.all(np.isfinite(e / e.sum(axis=-1, keepdims=True)))   # the softmax hides it
    v = T.Tensor(np.ones((1, 3, 8)))
    with pytest.raises(T.NumericsError, match="^attention: non-finite scores$"), \
            np.errstate(over="ignore"):
        T.attention(T.Tensor(q), T.Tensor(k), v, 2)
    q[..., :2] = -1e200      # +inf on the other key: NaN weights
    with pytest.raises(T.NumericsError, match="^attention: non-finite scores$"), \
            np.errstate(over="ignore", invalid="ignore"):
        T.attention(T.Tensor(q), T.Tensor(k), v, 2, np.array([[True, True, False]]))


def test_feed_forward_refuses_an_overflow_tanh_would_hide():
    x = T.Tensor(np.eye(4)[None, :3])      # normalized rows start 1.73, -0.58, -0.58
    w1 = np.zeros((4, 8))
    w1[0] = 1.5e308
    params = [T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)), T.Tensor(w1), T.Tensor(np.zeros(8)),
              T.Tensor(np.ones((8, 4))), T.Tensor(np.zeros(4))]
    with np.errstate(over="ignore"):
        pre = T.layer_norm(x, params[0], params[1]).data @ w1
        assert np.isposinf(pre[0, 0]).all() and np.isfinite(pre[0, 1:]).all()
        assert np.all(np.isfinite(np.tanh(pre)))                      # tanh hides it
        with pytest.raises(T.NumericsError,
                           match="^feed_forward: non-finite pre-tanh activations$"):
            T.feed_forward(x, *params)


def test_fused_nodes_refuse_a_non_finite_output():
    big = T.Tensor(np.full((2, 3), 1e308))
    with pytest.raises(T.NumericsError, match="^linear: non-finite output$"), \
            np.errstate(over="ignore"):
        T.linear(big, T.Tensor(np.full((3, 2), 10.0)), T.Tensor(np.zeros(2)))
    w1 = np.zeros((4, 8))
    w1[0] = 1.0              # finite pre-tanh activations, |tanh| near 1
    params = [T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)), T.Tensor(w1),
              T.Tensor(np.zeros(8)), T.Tensor(np.full((8, 4), 1e308)), T.Tensor(np.zeros(4))]
    with pytest.raises(T.NumericsError, match="^feed_forward: non-finite output$"), \
            np.errstate(over="ignore"):
        T.feed_forward(T.Tensor(np.eye(4)[None, :3]), *params)


def test_fused_shape_rules():
    x = T.Tensor(np.ones((2, 3, 4)))
    v4, m48, v8, m84 = (T.Tensor(np.ones(s)) for s in ((4,), (4, 8), (8,), (8, 4)))
    with pytest.raises(T.ShapeError, match="linear"):
        T.linear(x, m48, v4)
    with pytest.raises(T.ShapeError, match="linear"):
        T.linear(T.Tensor(np.ones(4)), m48, v8)
    with pytest.raises(T.ShapeError, match="feed_forward"):
        T.feed_forward(x, v4, v4, m48, v8, m48, v4)
    with pytest.raises(T.ShapeError, match="feed_forward"):
        T.feed_forward(x, v8, v4, m48, v8, m84, v4)
    with pytest.raises(T.ShapeError, match="feed_forward"):
        T.feed_forward(v4, v4, v4, m48, v8, m84, v4)
