"""Inference-time reranking through the reference bank.

Both modalities are projected onto the bank (one coordinate per
reference), compared by cosine in that space, and the resulting score is
fused with the base similarity at weight w.  Pure numpy: nothing here
trains.

The reference-space products run on one BLAS thread.  They are narrow
(inner size d or the bank size); on a loaded 2-vCPU host each hand-off to
a BLAS worker waited 8-14 ms, against about 1 ms for a whole 1000-row
product on one thread.  Their last bits then no longer follow the thread count.
"""
from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager, suppress

import numpy as np


@functools.cache
def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count; None if there is none."""
    with suppress(OSError, StopIteration):
        with open("/proc/self/maps") as f:
            lib = ctypes.CDLL(next(line.split()[-1] for line in f if "openblas" in line))
        for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                     "openblas_%s_num_threads"):
            with suppress(AttributeError):
                return getattr(lib, name % "get"), getattr(lib, name % "set")
    return None


@contextmanager
def _one_blas_thread():
    get, set_ = _openblas_threads() or (lambda: None, lambda n: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def project_to_reference_space(features: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """(n, d) features x (m, d) bank -> (n, m) coordinates."""
    features = np.asarray(features, dtype=np.float64)
    bank = np.asarray(bank, dtype=np.float64)
    if features.ndim != 2 or bank.ndim != 2 or features.shape[1] != bank.shape[1]:
        raise ValueError(f"projection: shapes {features.shape} / {bank.shape} do not pair")
    return features @ bank.T


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
    """Cosine between bank-space projections of queries and gallery."""
    with _one_blas_thread():
        q = project_to_reference_space(query_feats, bank)
        g = project_to_reference_space(gallery_feats, bank)
        return cosine_scores(q, g)


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
