"""Contrastive objectives with asymmetric temperatures and bounds.

One primitive drives everything: positives are pulled above a lower
bound alpha at temperature tau_p, negatives pushed below an upper bound
beta at temperature tau_n, via log(1 + e^x) summands.  The alignment,
fusion, and guidance losses differ only in which similarity matrix they
partition and where the gradient barrier sits: fusion detaches the
encoder features so only reference rows move, guidance detaches the
references so only encoders move.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class LossConfig:
    pos_temp: float = 10.0
    neg_temp: float = 40.0
    pos_bound: float = 0.6
    neg_bound: float = 0.4          # kept a fixed margin below pos_bound
    fusion_weight: float = 0.25     # on the fusion loss
    reconstruction_weight: float = 0.25
    guidance_weight: float = 4.0
    refine_weight: float = 0.5      # inference-time score fusion
    bank_wide_negatives: bool = False

    def __post_init__(self):
        if self.pos_temp <= 0.0 or self.neg_temp <= 0.0:
            raise ValueError(f"loss config: temperatures must be positive "
                             f"({self.pos_temp}, {self.neg_temp})")
        if not self.neg_bound < self.pos_bound:
            raise ValueError(f"loss config: neg_bound {self.neg_bound} must lie "
                             f"below pos_bound {self.pos_bound}")
        for name in ("fusion_weight", "reconstruction_weight", "guidance_weight",
                     "refine_weight"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"loss config: {name} must be finite and >= 0, "
                                 f"got {value}")


def _pairs(row_labels, col_labels):
    """-> ((rows, cols) of equal labels, (rows, cols) of unequal labels),
    each in row-major order; that order fixes every sum the losses make."""
    same = np.asarray(row_labels)[:, None] == np.asarray(col_labels)[None, :]
    return np.nonzero(same), np.nonzero(~same)


def contrastive_loss(s_pos: Tensor, s_neg: Tensor, cfg: LossConfig) -> Tensor:
    """sum log(1+e^(-tau_p (s-alpha))) over positives
    + sum log(1+e^(tau_n (s-beta))) over negatives."""
    if s_pos.size == 0 and s_neg.size == 0:
        raise ValueError("contrastive_loss: both pair lists are empty")
    pos = T.sum_all(T.softplus(T.scale(T.shift(s_pos, -cfg.pos_bound), -cfg.pos_temp)))
    neg = T.sum_all(T.softplus(T.scale(T.shift(s_neg, -cfg.neg_bound), cfg.neg_temp)))
    return T.add(pos, neg)


def align_loss(text_globals: Tensor, image_globals: Tensor, labels,
               cfg: LossConfig) -> Tensor:
    """Cross-modal alignment over the full n x n cosine matrix, weighted
    2/n.  Gradients reach both encoders."""
    labels = np.asarray(labels)
    n = text_globals.shape[0]
    if n == 0:
        raise ValueError("align_loss: empty batch")
    if image_globals.shape != text_globals.shape or labels.shape != (n,):
        raise T.ShapeError(f"align_loss: shapes {text_globals.shape} / "
                           f"{image_globals.shape} / labels {labels.shape}")
    sim = T.cosine_matrix(text_globals, image_globals)
    pos, neg = _pairs(labels, labels)
    return T.scale(contrastive_loss(T.take(sim, *pos), T.take(sim, *neg), cfg), 2.0 / n)


def _reference_rows(bank, reps: Tensor, labels, cfg: LossConfig, caller: str):
    """-> (identity ids, bank rows) that fusion and guidance compare the
    2n stacked modality features against: the batch's identities in
    first-occurrence order, or the whole bank when configured."""
    labels = np.asarray(labels)
    if reps.ndim != 2 or labels.shape != (reps.shape[0],):
        raise T.ShapeError(f"{caller}: reps {reps.shape} vs labels {labels.shape}")
    if labels.size == 0:
        raise ValueError(f"{caller}: empty batch")
    if cfg.bank_wide_negatives:
        ref_ids = np.arange(bank.m)
    else:
        # first-occurrence order keeps the similarity matrix reproducible
        _, first = np.unique(labels, return_index=True)
        ref_ids = labels[np.sort(first)]
    return ref_ids, bank.rows_for(ref_ids)


def fuse_loss(bank, reps: Tensor, labels, cfg: LossConfig) -> Tensor:
    """Pull each reference toward its identity's detached features,
    weighted 1/2n.  Gradients reach only the bank."""
    ref_ids, refs = _reference_rows(bank, reps, labels, cfg, "fuse_loss")
    sim = T.cosine_matrix(refs, T.stop_gradient(reps))
    pos, neg = _pairs(ref_ids, labels)
    return T.scale(contrastive_loss(T.take(sim, *pos), T.take(sim, *neg), cfg),
                   1.0 / reps.shape[0])


def guide_loss(reps: Tensor, bank, labels, cfg: LossConfig) -> Tensor:
    """Pull each feature toward its identity's detached reference,
    weighted 1/2n.  Gradients reach only the encoders."""
    ref_ids, refs = _reference_rows(bank, reps, labels, cfg, "guide_loss")
    sim = T.cosine_matrix(reps, T.stop_gradient(refs))
    # the pairs of fuse_loss, read off the transposed matrix in the same order
    (pos_refs, pos_reps), (neg_refs, neg_reps) = _pairs(ref_ids, labels)
    return T.scale(contrastive_loss(T.take(sim, pos_reps, pos_refs),
                                    T.take(sim, neg_reps, neg_refs), cfg),
                   1.0 / reps.shape[0])


def rec_loss(probs: Tensor, targets) -> Tensor:
    """Mean cross-entropy over masked positions; no positions, no loss.

    The 1e-300 inside the log only guards an exact-zero probability; it
    is far below one ulp of any achievable cross-entropy anchor.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if probs.ndim != 2:
        raise T.ShapeError(f"rec_loss: probabilities must be a matrix, got {probs.shape}")
    if targets.shape != (probs.shape[0],):
        raise T.ShapeError(f"rec_loss: {targets.shape[0] if targets.ndim else '?'} targets "
                           f"for {probs.shape[0]} rows")
    if targets.size == 0:
        return Tensor(0.0)
    if targets.min() < 0 or targets.max() >= probs.shape[1]:
        raise ValueError(f"rec_loss: target outside [0, {probs.shape[1]})")
    picked = T.take(probs, np.arange(targets.size), targets)
    return T.scale(T.mean_all(T.log(T.shift(picked, 1e-300))), -1.0)


def total_loss(align: Tensor, fuse: Tensor | None, rec: Tensor | None,
               guide: Tensor | None, cfg: LossConfig) -> Tensor:
    """align + l_fuse * fuse + l_rec * rec + l_guide * guide; absent parts
    are simply left out (that is what the ablation flags do)."""
    total = align
    for part, weight in ((fuse, cfg.fusion_weight),
                         (rec, cfg.reconstruction_weight),
                         (guide, cfg.guidance_weight)):
        if part is not None:
            total = T.add(total, T.scale(part, weight))
    return total
