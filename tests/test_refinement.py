import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refalign
from refalign import refinement
from refalign.config import W_SWEEP_GRID
from refalign.data import derive_rng
from refalign.evaluation import ranking
from refalign.refinement import (ROW_BLOCK, cosine_scores, fuse_scores,
                                 reference_similarity, refined_scores)


def _unit_rows(n, d, seed=0):
    x = derive_rng(55, 96, seed).normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _orthonormal(d, seed=0):
    q, _ = np.linalg.qr(derive_rng(55, 97, seed).normal(size=(d, d)))
    return q


def test_identity_bank_reference_similarity_equals_base():
    q, g = _unit_rows(4, 6, seed=1), _unit_rows(5, 6, seed=2)
    np.testing.assert_array_equal(reference_similarity(q, g, np.eye(6)),
                                  cosine_scores(q, g))


def test_orthonormal_bank_preserves_cosines():
    q, g = _unit_rows(7, 16, seed=3), _unit_rows(9, 16, seed=4)
    bank = _orthonormal(16)
    np.testing.assert_allclose(reference_similarity(q, g, bank),
                               cosine_scores(q, g), rtol=0, atol=1e-10)


def test_r_factor_equals_the_bank_projection():
    # B = QR with orthonormal Q, so the cosine of Bx and By is the cosine
    # of Rx and Ry; the m-wide form is computed here as the reference
    d = 32
    rng = derive_rng(55, 98)
    q, g = rng.normal(size=(40, d)), rng.normal(size=(50, d))
    for std in (0.02, 1.0):
        banks = {"m > d": rng.normal(scale=std, size=(200, d)),
                 "m = d": rng.normal(scale=std, size=(d, d)),
                 "m < d": rng.normal(scale=std, size=(8, d)),
                 "rank 10": rng.normal(scale=std, size=(200, 10))
                 @ rng.normal(size=(10, d))}
        for name, bank in banks.items():
            old = cosine_scores(q @ bank.T, g @ bank.T)
            np.testing.assert_allclose(reference_similarity(q, g, bank), old,
                                       rtol=0, atol=1e-13, err_msg=f"{name}, std {std}")


def test_importing_refalign_sets_one_blas_thread():
    # OpenBLAS reads its variables only when it loads, and numpy loads it
    # before refalign; so the count is set at import, for every product
    # of the process (encoders, base cosine, reranker) and every worker
    if refalign._openblas_threads() is None:
        pytest.skip("NumPy's BLAS is not an OpenBLAS with a thread setter")
    probe = "import numpy, refalign; print(refalign._openblas_threads()[0]())"
    src = str(Path(refalign.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "2",
                                          "PYTHONPATH": src})
    assert out.stdout == "1\n"


def test_reference_products_run_on_one_blas_thread(monkeypatch):
    # the count set at import holds through the products, and nothing on
    # the way, raising or not, changes it
    threads = refalign._openblas_threads()
    if threads is None:
        pytest.skip("NumPy's BLAS is not an OpenBLAS with a thread setter")
    get_threads = threads[0]
    seen = []
    qr, normalise = np.linalg.qr, refinement._normalise
    q, g, bank = _unit_rows(7, 16, seed=3), _unit_rows(9, 16, seed=4), _orthonormal(16)

    def spy(fn, name):
        def call(*args, **kwargs):
            seen.append((name, get_threads()))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "qr", spy(qr, "qr"))
    monkeypatch.setattr(refinement, "_normalise", spy(normalise, "normalise"))
    reference_similarity(q, g, bank)
    assert seen == [("qr", 1), ("normalise", 1)] and get_threads() == 1
    with pytest.raises(ValueError, match="do not pair"):
        reference_similarity(q, g, np.ones((3, 5)))
    assert get_threads() == 1
    with pytest.raises(ValueError, match="row 0"):
        reference_similarity(np.eye(16)[:2], g, np.eye(16)[2:])
    assert seen[-1] == ("normalise", 1) and get_threads() == 1


def test_fusion_arithmetic():
    base, ref = np.array([[0.6]]), np.array([[0.4]])
    out = fuse_scores(base, ref, 0.5)
    np.testing.assert_array_equal(out, [[0.8]])
    np.testing.assert_array_equal(base, [[0.6]])     # arguments untouched
    np.testing.assert_array_equal(ref, [[0.4]])


def test_zero_weight_keeps_base_ranking():
    q, g = _unit_rows(6, 8, seed=5), _unit_rows(20, 8, seed=6)
    bank = derive_rng(55, 96, 7).normal(size=(10, 8))
    refined = refined_scores(q, g, bank, 0.0)
    np.testing.assert_array_equal(ranking(refined), ranking(cosine_scores(q, g)))


def test_fusion_monotone_in_reference_score():
    base = np.zeros((1, 2))
    low = fuse_scores(base, np.array([[0.1, 0.9]]), 0.5)
    assert low[0, 1] > low[0, 0]
    flipped = fuse_scores(base, np.array([[0.9, 0.1]]), 0.5)
    assert flipped[0, 0] > flipped[0, 1]


def test_weight_validation():
    s = np.ones((2, 2))
    with pytest.raises(ValueError):
        fuse_scores(s, s, -0.5)
    with pytest.raises(ValueError):
        fuse_scores(s, s, float("nan"))
    with pytest.raises(ValueError):
        fuse_scores(s, np.ones((2, 3)), 0.5)
    with pytest.raises(ValueError, match="bad weight"):
        refined_scores(s, s, s, -0.5)


def test_shape_validation():
    with pytest.raises(ValueError, match="do not pair"):
        reference_similarity(np.ones((2, 4)), np.ones((2, 4)), np.ones(4))
    with pytest.raises(ValueError):
        cosine_scores(np.ones((2, 4)), np.ones((2, 5)))
    with pytest.raises(ValueError):
        cosine_scores(np.ones(4), np.ones((2, 4)))


def test_zero_projection_rejected_with_index():
    feats = np.vstack([np.eye(4)[0], np.eye(4)[1]])
    bank = np.eye(4)[2:]           # both features orthogonal to every row
    with pytest.raises(ValueError, match="row 0"):
        reference_similarity(feats, _unit_rows(2, 4, seed=8), bank)
    with pytest.raises(ValueError, match="right"):
        cosine_scores(np.ones((2, 4)), np.zeros((2, 4)))


def test_refined_equals_manual_fusion():
    q, g = _unit_rows(3, 8, seed=9), _unit_rows(5, 8, seed=10)
    bank = derive_rng(55, 96, 11).normal(size=(6, 8))
    manual = cosine_scores(q, g) + 0.3 * reference_similarity(q, g, bank)
    np.testing.assert_array_equal(refined_scores(q, g, bank, 0.3), manual)
    # refined_scores fuses in place; it must stay bitwise equal to
    # fuse_scores and leave the caller's arrays alone
    kept = (q.copy(), g.copy(), bank.copy())
    for w in (0.0, 0.3, 0.5, 1.7):
        expect = fuse_scores(cosine_scores(q, g), reference_similarity(q, g, bank), w)
        assert np.array_equal(refined_scores(q, g, bank, w), expect)
    for before, after in zip(kept, (q, g, bank)):
        assert np.array_equal(before, after)



def test_blockwise_rerank_equals_fusion_at_every_size():
    # the reference cosine is added ROW_BLOCK rows at a time, never built
    # whole; every w of the sweep, a single row, one block either side of
    # a block edge and a gallery as wide as the split or narrower
    bank = derive_rng(55, 96, 12).normal(size=(40, 16))
    for n, ng in ((1, 1), (2 * ROW_BLOCK - 1,) * 2, (2 * ROW_BLOCK,) * 2,
                  (2 * ROW_BLOCK + 1,) * 2, (1000, 1000), (2 * ROW_BLOCK + 1, 7)):
        q, g = derive_rng(55, 99, n).normal(size=(n, 16)), _unit_rows(ng, 16, seed=ng)
        base, ref = cosine_scores(q, g), reference_similarity(q, g, bank)
        for w in W_SWEEP_GRID:
            assert np.array_equal(refined_scores(q, g, bank, w), fuse_scores(base, ref, w)), (n, w)


def test_refined_scores_keeps_every_refusal():
    q, g, bank = _unit_rows(3, 4, seed=13), _unit_rows(5, 4, seed=14), np.eye(4)
    orthogonal = np.eye(4)[2:]
    base = (
        ((q, _unit_rows(5, 3), bank), r"^cosine: shapes \(3, 4\) / \(5, 3\) do not pair$"),
        ((q[0], g, bank), r"^cosine: shapes \(4,\) / \(5, 4\) do not pair$"),
        ((np.zeros((2, 4)), g, bank), r"^cosine: zero-norm row 0 on the left "),
        ((q, np.vstack([g, np.zeros(4)]), bank), r"^cosine: zero-norm row 5 on the right$"))
    reference = (
        ((q, g, np.ones((2, 3))), r"^reference: shapes \(3, 4\) / \(5, 4\) / \(2, 3\) do not pair$"),
        ((q, g, np.ones(4)), r"^reference: shapes .* do not pair$"),
        ((np.eye(4)[[2, 0]], g, orthogonal),
         r"^cosine: zero-norm row 1 on the left \(projected feature orthogonal"),
        ((q, np.eye(4)[[2, 3, 1]], orthogonal), r"^cosine: zero-norm row 2 on the right$"))
    for args, message in base + reference:
        with pytest.raises(ValueError, match=message):
            refined_scores(*args, 0.5)
    for args, message in reference:
        with pytest.raises(ValueError, match=message):
            reference_similarity(*args)
