"""Learnable per-identity references and masked-token reconstruction.

The bank holds one d-vector per training identity.  Fusion and guidance
move it globally; the reconstruction path injects local detail: mask a
few caption tokens, re-encode, then decode the missing tokens with the
identity's reference added to every position.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import MASK_ID, N_SPECIAL
from .encoders import AttentionBlock, FeedForward, linear_init
from .tensor import Tensor

_BANK_STD = 0.02
_N_STAGES = 3


class ReferenceBank:
    """m x d learnable matrix; row i is train identity i."""

    def __init__(self, m: int, d: int, rng: np.random.Generator):
        if m < 1:
            raise ValueError("reference bank: no identities")
        if d < 1:
            raise ValueError(f"reference bank: bad width {d}")
        self.ref = T.parameter(rng.normal(0.0, _BANK_STD, size=(m, d)), "reference.bank")

    @property
    def m(self) -> int:
        return self.ref.shape[0]

    @property
    def d(self) -> int:
        return self.ref.shape[1]

    def rows_for(self, labels) -> Tensor:
        """Gather rows by identity label; gradients accumulate across
        duplicate labels.  A label outside [0, m) is a KeyError."""
        labels = np.asarray(labels, dtype=np.intp).ravel()
        if labels.size and (labels.min() < 0 or labels.max() >= self.m):
            bad = labels[(labels < 0) | (labels >= self.m)][0]
            raise KeyError(f"reference bank: identity {bad} has no row")
        return T.take(self.ref, labels)

    def matrix(self) -> np.ndarray:
        return self.ref.data


# ------------------------------------------------------------------ masking

@dataclass(frozen=True)
class MaskedText:
    tokens: np.ndarray     # sequence with MASK written in
    positions: np.ndarray  # ascending masked positions
    targets: np.ndarray    # original ids at those positions


def mask_tokens(tokens, ratio: float, rng: np.random.Generator) -> MaskedText:
    """Replace round(ratio * maskable) tokens (at least one when the
    ratio is positive) with MASK.

    Only non-special tokens are maskable; BOS, EOS, and PAD never are.
    Ratio 0 and a sequence with no maskable tokens (a text with every
    slot left out is legal) both come back unchanged with empty positions.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError(f"mask_tokens: need a non-empty 1-d sequence, got shape {tokens.shape}")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"mask_tokens: ratio {ratio} outside [0, 1]")
    maskable = np.flatnonzero(tokens >= N_SPECIAL)
    if ratio == 0.0 or maskable.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return MaskedText(tokens.copy(), empty, tokens[empty].copy())
    k = max(1, round(ratio * maskable.size))
    chosen = np.sort(rng.choice(maskable, size=k, replace=False))
    out = tokens.copy()
    targets = out[chosen].copy()
    out[chosen] = MASK_ID
    return MaskedText(out, chosen, targets)


# ----------------------------------------------------------- reconstruction

class ReferenceStage:
    """Adds the projected reference to every position, then a feed-forward.

    This is cross-attention onto a single key/value row in closed form:
    a softmax over one key is identically 1, so every position receives
    the value row whatever its query, and the query and key projections
    never get a gradient.
    """

    def __init__(self, d: int, rng: np.random.Generator, name: str):
        # draw and discard the init of the query projection this stage no
        # longer has, so every later parameter keeps its seeded value
        linear_init(rng, d, d)
        self.wo = T.parameter(linear_init(rng, d, d), f"{name}.wo")
        self.bo = T.parameter(np.zeros(d), f"{name}.bo")
        self.ffn = FeedForward(d, rng, f"{name}.ffn")

    def parameters(self) -> list[Tensor]:
        return [self.wo, self.bo] + self.ffn.parameters()

    def __call__(self, x: Tensor, values: Tensor) -> Tensor:
        """x: (B, L, d) token states; values: (B, d) projected references."""
        B, L, _ = x.shape
        per_position = np.broadcast_to(np.arange(B)[:, None], (B, L))
        injected = T.take(T.linear(values, self.wo, self.bo), per_position)
        return self.ffn(T.add(x, injected))


class LocalReconstructor:
    """Decoder over masked token states, conditioned on a reference.

    Three perceptron layers: an input projection on the token states, a
    value projection of the reference (shared by every stage), and the
    vocabulary head.  Between them sit stages of self-attention over the
    tokens followed by a reference stage.
    """

    def __init__(self, d: int, n_heads: int, vocab_size: int,
                 rng: np.random.Generator, n_stages: int = _N_STAGES):
        if n_stages < 1:
            raise ValueError(f"reconstructor: need at least one stage, got {n_stages}")
        P = T.parameter
        self.d = d
        self.vocab_size = vocab_size
        self.w_in = P(linear_init(rng, d, d), "recon.w_in")
        self.b_in = P(np.zeros(d), "recon.b_in")
        # draw and discard the retired key projection's init, so every
        # later parameter (the bank included) keeps its seeded value
        linear_init(rng, d, d)
        self.w_val = P(linear_init(rng, d, d), "recon.w_val")
        self.b_val = P(np.zeros(d), "recon.b_val")
        self.stages = [
            (AttentionBlock(d, n_heads, rng, name=f"recon.stage{i}.self"),
             ReferenceStage(d, rng, name=f"recon.stage{i}.ref"))
            for i in range(n_stages)
        ]
        self.w_head = P(linear_init(rng, d, vocab_size), "recon.w_head")
        self.b_head = P(np.zeros(vocab_size), "recon.b_head")

    def parameters(self) -> list[Tensor]:
        out = [self.w_in, self.b_in, self.w_val, self.b_val]
        for self_block, ref_stage in self.stages:
            out.extend(self_block.parameters())
            out.extend(ref_stage.parameters())
        out += [self.w_head, self.b_head]
        return out

    def __call__(self, token_states: Tensor, references: Tensor,
                 mask_rows, mask_cols,
                 key_mask: np.ndarray | None = None) -> Tensor:
        """token_states: (B, L, d) encoder output of the masked batch;
        references: (B, d), each sample's own identity row;
        mask_rows/mask_cols: flat index lists of the masked positions.
        -> (|M|, V) vocabulary probabilities, one row per masked position."""
        if token_states.ndim != 3 or token_states.shape[2] != self.d:
            raise T.ShapeError(f"reconstructor: token states {token_states.shape}, want (B, L, {self.d})")
        B, L, d = token_states.shape
        if references.shape != (B, d):
            raise T.ShapeError(f"reconstructor: references {references.shape}, want {(B, d)}")
        mask_rows = np.asarray(mask_rows, dtype=np.intp)
        mask_cols = np.asarray(mask_cols, dtype=np.intp)
        if mask_rows.shape != mask_cols.shape or mask_rows.ndim != 1 or mask_rows.size == 0:
            raise T.ShapeError("reconstructor: need matching non-empty mask index lists")
        if mask_rows.max() >= B or mask_cols.max() >= L or mask_rows.min() < 0 or mask_cols.min() < 0:
            raise T.ShapeError("reconstructor: mask position outside the batch")

        values = T.linear(references, self.w_val, self.b_val)
        x = T.linear(token_states, self.w_in, self.b_in)
        for self_block, ref_stage in self.stages:
            x = ref_stage(self_block(x, key_mask=key_mask), values)
        selected = T.take(x, mask_rows, mask_cols)
        return T.row_softmax(T.linear(selected, self.w_head, self.b_head))
