"""Inference-time reranking through the reference bank.

The reference score of a pair is the cosine of their projections onto
the bank's rows, fused with the base similarity at weight w.  With the
bank's reduced QR, B = QR, Q has orthonormal columns, so (Bx)·(By) =
(Rx)·(Ry) and |Bx| = |Rx|: the cosine is taken between Rx and Ry, which
are min(m, d) wide instead of m.  The reference cosine is taken
ROW_BLOCK query rows per product, by reference_similarity and
refined_scores alike, so the two give the same bits on any shape.  Pure
numpy: nothing here trains.  Like every product in refalign, these run
on the one BLAS thread that importing the package sets.
"""
from __future__ import annotations

import numpy as np


# query rows per reference product, 1 MB at a 4,000-item gallery
ROW_BLOCK = 32


def _normalise(a: np.ndarray, b: np.ndarray):
    """a and b with unit rows; zero-norm rows are an error, never an epsilon."""
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
    return a / na[:, None], b / nb[:, None]


def cosine_scores(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine; zero-norm rows are an error, never an epsilon."""
    a, b = _normalise(a, b)
    return a @ b.T


def _projected(query_feats: np.ndarray, gallery_feats: np.ndarray, bank: np.ndarray):
    q, g, bank = (np.asarray(a, dtype=np.float64) for a in (query_feats, gallery_feats, bank))
    if not q.ndim == g.ndim == bank.ndim == 2 or not q.shape[1] == g.shape[1] == bank.shape[1]:
        raise ValueError(f"reference: shapes {q.shape} / {g.shape} / {bank.shape} do not pair")
    r = np.linalg.qr(bank, mode="r")
    return _normalise(q @ r.T, g @ r.T)


def reference_similarity(query_feats: np.ndarray, gallery_feats: np.ndarray,
                         bank: np.ndarray) -> np.ndarray:
    """Cosine between the bank-space projections of queries and gallery,
    taken through the bank's R factor ROW_BLOCK query rows at a time, as
    refined_scores takes it; a feature orthogonal to every reference is
    an error."""
    q, g = _projected(query_feats, gallery_feats, bank)
    out = np.empty((q.shape[0], g.shape[0]))
    for lo in range(0, q.shape[0], ROW_BLOCK):
        out[lo:lo + ROW_BLOCK] = q[lo:lo + ROW_BLOCK] @ g.T
    return out


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
    fuse_scores(cosine_scores(...), reference_similarity(...), w).  The
    reference cosine is never built whole: each ROW_BLOCK-row product is
    weighted and added to the base rows while it is in cache."""
    _check_weight(weight)
    base = cosine_scores(query_feats, gallery_feats)
    q, g = _projected(query_feats, gallery_feats, bank)
    for lo in range(0, q.shape[0], ROW_BLOCK):
        block = q[lo:lo + ROW_BLOCK] @ g.T
        block *= weight
        base[lo:lo + ROW_BLOCK] += block
    return base
