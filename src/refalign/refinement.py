"""Inference-time reranking through the reference bank.

The reference score of a pair is the cosine of their projections onto
the bank's rows, fused with the base similarity at weight w.  With the
bank's reduced QR, B = QR, Q has orthonormal columns, so (Bx)·(By) =
(Rx)·(Ry) and |Bx| = |Rx|: the cosine is taken between Rx and Ry, which
are min(m, d) wide instead of m.  Pure numpy: nothing here trains.
Like every product in refalign, these run on the one BLAS thread that
importing the package sets.
"""
from __future__ import annotations

import numpy as np


def cosine_scores(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine; zero-norm rows are an error, never an epsilon."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"cosine: shapes {a.shape} / {b.shape} do not pair")
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0):
        raise ValueError(f"cosine: zero-norm row {int(np.argmax(na == 0.0))} on the left "
                         f"(projected feature orthogonal to every reference?)")
    if np.any(nb == 0.0):
        raise ValueError(f"cosine: zero-norm row {int(np.argmax(nb == 0.0))} on the right")
    return (a / na[:, None]) @ (b / nb[:, None]).T


def reference_similarity(query_feats: np.ndarray, gallery_feats: np.ndarray,
                         bank: np.ndarray) -> np.ndarray:
    """Cosine between the bank-space projections of queries and gallery,
    taken through the bank's R factor; a feature orthogonal to every
    reference is an error."""
    q, g, bank = (np.asarray(a, dtype=np.float64) for a in (query_feats, gallery_feats, bank))
    if not q.ndim == g.ndim == bank.ndim == 2 or not q.shape[1] == g.shape[1] == bank.shape[1]:
        raise ValueError(f"reference: shapes {q.shape} / {g.shape} / {bank.shape} do not pair")
    r = np.linalg.qr(bank, mode="r")
    return cosine_scores(q @ r.T, g @ r.T)


def _check_weight(weight: float) -> None:
    if not np.isfinite(weight) or weight < 0.0:
        raise ValueError(f"fusion: bad weight {weight}")


def fuse_scores(base: np.ndarray, reference: np.ndarray, weight: float) -> np.ndarray:
    base = np.asarray(base, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if base.shape != reference.shape:
        raise ValueError(f"fusion: score shapes differ, {base.shape} vs {reference.shape}")
    _check_weight(weight)
    return base + weight * reference


def refined_scores(query_feats: np.ndarray, gallery_feats: np.ndarray,
                   bank: np.ndarray, weight: float) -> np.ndarray:
    """Base cosine plus w times reference-space cosine, bitwise equal to
    fuse_scores but fused in place on the two matrices built here."""
    _check_weight(weight)
    base = cosine_scores(query_feats, gallery_feats)
    ref = reference_similarity(query_feats, gallery_feats, bank)
    ref *= weight
    base += ref
    return base
