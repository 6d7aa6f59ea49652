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


@dataclass(frozen=True)
class PairPartition:
    """Exhaustive, disjoint split of a similarity matrix's index set by
    label equality."""
    pos_rows: np.ndarray
    pos_cols: np.ndarray
    neg_rows: np.ndarray
    neg_cols: np.ndarray

    @property
    def n_pos(self) -> int:
        return self.pos_rows.size

    @property
    def n_neg(self) -> int:
        return self.neg_rows.size


def partition_by_labels(row_labels, col_labels) -> PairPartition:
    row_labels = np.asarray(row_labels)
    col_labels = np.asarray(col_labels)
    if row_labels.ndim != 1 or col_labels.ndim != 1 or not row_labels.size or not col_labels.size:
        raise ValueError(f"partition: need non-empty 1-d label vectors, got "
                         f"{row_labels.shape} / {col_labels.shape}")
    same = row_labels[:, None] == col_labels[None, :]
    pr, pc = np.nonzero(same)
    nr, nc = np.nonzero(~same)
    return PairPartition(pr, pc, nr, nc)


def contrastive_loss(s_pos: Tensor, s_neg: Tensor, cfg: LossConfig) -> Tensor:
    """sum log(1+e^(-tau_p (s-alpha))) over positives
    + sum log(1+e^(tau_n (s-beta))) over negatives."""
    if s_pos.size == 0 and s_neg.size == 0:
        raise ValueError("contrastive_loss: both pair lists are empty")
    pos = T.sum_all(T.softplus(T.scale(T.shift(s_pos, -cfg.pos_bound), -cfg.pos_temp)))
    neg = T.sum_all(T.softplus(T.scale(T.shift(s_neg, -cfg.neg_bound), cfg.neg_temp)))
    return T.add(pos, neg)


def _partitioned_loss(sim: Tensor, part: PairPartition, cfg: LossConfig) -> Tensor:
    s_pos = T.take(sim, part.pos_rows, part.pos_cols)
    s_neg = T.take(sim, part.neg_rows, part.neg_cols)
    return contrastive_loss(s_pos, s_neg, cfg)


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
    part = partition_by_labels(labels, labels)
    return T.scale(_partitioned_loss(sim, part, cfg), 2.0 / n)


def _bank_similarity(bank, reps: Tensor, labels: np.ndarray, cfg: LossConfig,
                     detach: str):
    """Rows are bank references (batch identities, or the whole bank when
    configured), columns are the 2n stacked modality features."""
    if cfg.bank_wide_negatives:
        ref_ids = np.asarray(bank.identity_ids)
    else:
        # first-occurrence order keeps the similarity matrix reproducible
        _, first = np.unique(labels, return_index=True)
        ref_ids = labels[np.sort(first)]
    refs = bank.rows_for(ref_ids)
    if detach == "features":
        sim = T.cosine_matrix(refs, T.stop_gradient(reps))
    elif detach == "references":
        sim = T.permute(T.cosine_matrix(reps, T.stop_gradient(refs)), (1, 0))
    else:
        raise ValueError(f"unknown detach side {detach!r}")
    return sim, ref_ids


def fuse_loss(bank, reps: Tensor, labels, cfg: LossConfig) -> Tensor:
    """Pull each reference toward its identity's detached features,
    weighted 1/2n.  Gradients reach only the bank."""
    labels = np.asarray(labels)
    if reps.ndim != 2 or labels.shape != (reps.shape[0],):
        raise T.ShapeError(f"fuse_loss: reps {reps.shape} vs labels {labels.shape}")
    sim, ref_ids = _bank_similarity(bank, reps, labels, cfg, detach="features")
    part = partition_by_labels(ref_ids, labels)
    return T.scale(_partitioned_loss(sim, part, cfg), 1.0 / reps.shape[0])


def guide_loss(reps: Tensor, bank, labels, cfg: LossConfig) -> Tensor:
    """Pull each feature toward its identity's detached reference,
    weighted 1/2n.  Gradients reach only the encoders."""
    labels = np.asarray(labels)
    if reps.ndim != 2 or labels.shape != (reps.shape[0],):
        raise T.ShapeError(f"guide_loss: reps {reps.shape} vs labels {labels.shape}")
    sim, ref_ids = _bank_similarity(bank, reps, labels, cfg, detach="references")
    part = partition_by_labels(ref_ids, labels)
    return T.scale(_partitioned_loss(sim, part, cfg), 1.0 / reps.shape[0])


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
    are simply dropped (that is what the ablation flags do)."""
    total = align
    for part, weight in ((fuse, cfg.fusion_weight),
                         (rec, cfg.reconstruction_weight),
                         (guide, cfg.guidance_weight)):
        if part is not None:
            total = T.add(total, T.scale(part, weight))
    return total
