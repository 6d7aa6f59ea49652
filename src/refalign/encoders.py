"""Modality encoders producing unit-norm global features.

Text: token + position embeddings through pre-norm attention blocks,
pooled at the EOS position.  Image: a two-layer perceptron.  Both end in
L2 normalization, so every downstream similarity is a cosine in [-1, 1].

The pre-norm feed-forward sublayer is its own piece so the
reconstruction head's reference stages can reuse it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import EOS_ID, PAD_ID
from .tensor import Tensor

_FFN_MULT = 4
_EMB_STD = 0.02


@dataclass(frozen=True)
class EncoderConfig:
    d: int = 64
    n_blocks: int = 2
    n_heads: int = 4
    vocab_size: int = 64
    max_seq_len: int = 24

    def __post_init__(self):
        if self.d < 1 or self.d % self.n_heads != 0:
            raise ValueError(f"encoder: d={self.d} must be a positive multiple of n_heads={self.n_heads}")
        if self.vocab_size < 4:
            raise ValueError(f"encoder: vocab_size={self.vocab_size} leaves no room for specials")
        if self.max_seq_len < 2:
            raise ValueError(f"encoder: max_seq_len={self.max_seq_len} cannot hold BOS+EOS")
        if self.n_blocks < 1:
            raise ValueError(f"encoder: n_blocks={self.n_blocks} must be positive")


def linear_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))


class FeedForward:
    """Pre-norm residual tanh feed-forward: x + W2 tanh(W1 LN(x))."""

    def __init__(self, d: int, rng: np.random.Generator, name: str):
        P = T.parameter
        hidden = _FFN_MULT * d
        self.ln_g = P(np.ones(d), f"{name}.ln.g")
        self.ln_b = P(np.zeros(d), f"{name}.ln.b")
        self.w1 = P(linear_init(rng, d, hidden), f"{name}.w1")
        self.b1 = P(np.zeros(hidden), f"{name}.b1")
        self.w2 = P(linear_init(rng, hidden, d), f"{name}.w2")
        self.b2 = P(np.zeros(d), f"{name}.b2")

    def parameters(self) -> list[Tensor]:
        return [self.ln_g, self.ln_b, self.w1, self.b1, self.w2, self.b2]

    def __call__(self, x: Tensor) -> Tensor:
        return T.feed_forward(x, self.ln_g, self.ln_b, self.w1, self.b1, self.w2, self.b2)


class AttentionBlock:
    """Pre-norm residual block: self-attention then a tanh feed-forward.

    Keys carry no bias: adding q.b to a whole softmax row leaves the
    attention weights unchanged, so such a bias never gets a gradient.
    """

    def __init__(self, d: int, n_heads: int, rng: np.random.Generator, name: str):
        self.n_heads = n_heads
        P = T.parameter
        self.ln1_g = P(np.ones(d), f"{name}.ln1.g")
        self.ln1_b = P(np.zeros(d), f"{name}.ln1.b")
        self.wq = P(linear_init(rng, d, d), f"{name}.wq")
        self.bq = P(np.zeros(d), f"{name}.bq")
        self.wk = P(linear_init(rng, d, d), f"{name}.wk")
        self.wv = P(linear_init(rng, d, d), f"{name}.wv")
        self.bv = P(np.zeros(d), f"{name}.bv")
        self.wo = P(linear_init(rng, d, d), f"{name}.wo")
        self.bo = P(np.zeros(d), f"{name}.bo")
        self.ffn = FeedForward(d, rng, f"{name}.ffn")

    def parameters(self) -> list[Tensor]:
        return [self.ln1_g, self.ln1_b, self.wq, self.bq, self.wk, self.wv,
                self.bv, self.wo, self.bo] + self.ffn.parameters()

    def __call__(self, x: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        h = T.layer_norm(x, self.ln1_g, self.ln1_b)
        q = T.linear(h, self.wq, self.bq)
        k = T.matmul(h, self.wk)
        v = T.linear(h, self.wv, self.bv)
        a = T.attention(q, k, v, self.n_heads, key_mask)
        return self.ffn(T.add(x, T.linear(a, self.wo, self.bo)))


class TextEncoder:
    """Token/position embeddings, self-attention blocks, EOS pooling.

    The pooled feature is read at the first EOS position (the last real
    token for anything the tokenizer produced) and unit-normalized.
    Padded keys are masked out of every softmax, so a padded batch and
    one-by-one encoding agree only up to rounding (~1e-16): padding
    changes the shapes BLAS sums over.  encode_split therefore
    encodes captions unpadded, in equal-length groups, and each row is
    bitwise the caption encoded alone; padded training batches differ
    from that in the last bits.
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.tok_emb = T.parameter(rng.normal(0.0, _EMB_STD, size=(cfg.vocab_size, cfg.d)),
                                   "text.tok_emb")
        self.pos_emb = T.parameter(rng.normal(0.0, _EMB_STD, size=(cfg.max_seq_len, cfg.d)),
                                   "text.pos_emb")
        self.blocks = [AttentionBlock(cfg.d, cfg.n_heads, rng, name=f"text.block{i}")
                       for i in range(cfg.n_blocks)]

    def parameters(self) -> list[Tensor]:
        out = [self.tok_emb, self.pos_emb]
        for b in self.blocks:
            out.extend(b.parameters())
        return out

    def encode_batch(self, seqs) -> tuple[Tensor, Tensor, np.ndarray]:
        """-> (globals (B, d) unit rows, token states (B, L, d), key mask)."""
        seqs = [np.asarray(s) for s in seqs]
        if not seqs:
            raise T.ShapeError("text encoder: empty batch")
        bad = [s.shape for s in seqs if s.ndim != 1 or s.size == 0]
        if bad:
            raise T.ShapeError(f"text encoder: sequences must be non-empty 1-d, got shape {bad[0]}")
        # as take() does: a float id would otherwise be truncated silently
        bad = [s.dtype for s in seqs if s.dtype.kind not in "iu"]
        if bad:
            raise T.ShapeError(f"text encoder: token ids must be integers, got {bad[0]}")
        sizes = np.array([s.size for s in seqs])
        if sizes.max() > self.cfg.max_seq_len:
            raise T.ShapeError(f"text encoder: length {sizes[sizes > self.cfg.max_seq_len][0]} "
                               f"exceeds max {self.cfg.max_seq_len}")
        flat = np.concatenate(seqs)
        if flat.min() < 0 or flat.max() >= self.cfg.vocab_size:
            raise T.ShapeError(f"text encoder: token id outside [0, {self.cfg.vocab_size})")
        B, L = len(seqs), int(sizes.max())
        mask = np.arange(L) < sizes[:, None]
        ids = np.full((B, L), PAD_ID, dtype=np.int64)
        ids[mask] = flat
        eos = (ids == EOS_ID) & mask
        pooled_at = np.where(eos.any(axis=1), eos.argmax(axis=1), sizes - 1)
        pos = np.broadcast_to(np.arange(L), (B, L))
        x = T.add(T.take(self.tok_emb, ids), T.take(self.pos_emb, pos))
        for block in self.blocks:
            x = block(x, key_mask=mask)
        pooled = T.l2_normalize(T.take(x, np.arange(B), pooled_at))
        return pooled, x, mask


class ImageEncoder:
    """Two-layer tanh perceptron from input_dim features onto the shared
    unit sphere."""

    def __init__(self, cfg: EncoderConfig, input_dim: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.w1 = T.parameter(linear_init(rng, input_dim, cfg.d), "image.w1")
        self.b1 = T.parameter(np.zeros(cfg.d), "image.b1")
        self.w2 = T.parameter(linear_init(rng, cfg.d, cfg.d), "image.w2")
        self.b2 = T.parameter(np.zeros(cfg.d), "image.b2")

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    def encode_batch(self, feats) -> Tensor:
        """-> (B, d) unit rows."""
        x = Tensor(feats)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise T.ShapeError(f"image encoder: expected (B, {self.input_dim}), got {x.shape}")
        h = T.tanh(T.linear(x, self.w1, self.b1))
        return T.l2_normalize(T.linear(h, self.w2, self.b2))

