"""Loss terms against hand-derived anchors and contract checks."""
import math

import numpy as np
import pytest

from refalign import tensor as T
from refalign.data import derive_rng
from refalign.losses import (LossConfig, _pairs, align_loss, contrastive_loss,
                             fuse_loss, guide_loss, rec_loss, total_loss)
from refalign.reference import ReferenceBank

LN2 = math.log(2.0)


def _cfg(**kw):
    return LossConfig(**kw)


def _bank(m, d, rows=None, seed=0):
    bank = ReferenceBank(m, d, derive_rng(seed, 94))
    if rows is not None:
        bank.ref.data[:] = np.asarray(rows, dtype=np.float64)
    return bank


def test_config_defaults_and_validation():
    cfg = _cfg()
    assert (cfg.pos_temp, cfg.neg_temp) == (10.0, 40.0)
    assert (cfg.pos_bound, cfg.neg_bound) == (0.6, 0.4)
    assert (cfg.fusion_weight, cfg.reconstruction_weight) == (0.25, 0.25)
    assert cfg.guidance_weight == 4.0
    assert cfg.refine_weight == 0.5
    assert cfg.bank_wide_negatives is False
    with pytest.raises(ValueError):
        _cfg(pos_temp=0.0)
    with pytest.raises(ValueError):
        _cfg(neg_temp=-1.0)
    with pytest.raises(ValueError):
        _cfg(neg_bound=0.6)        # must stay below pos_bound
    for bad in (dict(guidance_weight=-0.1), dict(reconstruction_weight=-0.1),
                dict(refine_weight=-1.0), dict(refine_weight=float("nan")),
                dict(guidance_weight=float("nan")), dict(fusion_weight=float("inf"))):
        with pytest.raises(ValueError, match=next(iter(bad))):
            _cfg(**bad)


# -------------------------------------------------------------------- pairs

def test_pairs_exhaustive_disjoint_row_major():
    rng = derive_rng(1, 94)
    rows = rng.integers(0, 4, size=7)
    cols = rng.integers(0, 4, size=5)
    (pr, pc), (nr, nc) = _pairs(rows, cols)
    pos = list(zip(pr.tolist(), pc.tolist()))
    neg = list(zip(nr.tolist(), nc.tolist()))
    assert not set(pos) & set(neg)
    assert sorted(pos + neg) == [(r, c) for r in range(7) for c in range(5)]
    # exactly the equal-label entries, in row-major order
    assert pos == [(r, c) for r in range(7) for c in range(5) if rows[r] == cols[c]]
    assert neg == [(r, c) for r in range(7) for c in range(5) if rows[r] != cols[c]]


def test_losses_refuse_empty_or_mismatched_labels():
    bank = _bank(2, 4)
    empty = T.Tensor(np.empty((0, 4)))
    reps = T.Tensor(np.ones((2, 4)))
    for cfg in (_cfg(), _cfg(bank_wide_negatives=True)):
        with pytest.raises(ValueError, match="empty batch"):
            align_loss(empty, empty, [], cfg)
        with pytest.raises(ValueError, match="empty batch"):
            fuse_loss(bank, empty, [], cfg)
        with pytest.raises(ValueError, match="empty batch"):
            guide_loss(empty, bank, [], cfg)
        for labels in ([0], [0, 1, 1], [[0, 1]]):
            with pytest.raises(T.ShapeError):
                align_loss(reps, reps, labels, cfg)
            with pytest.raises(T.ShapeError):
                fuse_loss(bank, reps, labels, cfg)
            with pytest.raises(T.ShapeError):
                guide_loss(reps, bank, labels, cfg)


# ------------------------------------------------------- contrastive anchors

def test_pair_at_both_bounds_costs_two_ln_two():
    loss = contrastive_loss(T.Tensor([0.6]), T.Tensor([0.4]), _cfg())
    assert abs(loss.item() - 2.0 * LN2) < 1e-9


def test_separated_pair_scalar_anchor():
    loss = contrastive_loss(T.Tensor([0.9]), T.Tensor([0.1]), _cfg())
    expect = np.log1p(np.exp(-3.0)) + np.log1p(np.exp(-12.0))
    assert abs(loss.item() - expect) < 1e-12
    assert abs(loss.item() - 0.048593) < 1e-6


def test_contrastive_empty_side_allowed_not_both():
    none = T.Tensor(np.empty(0))
    assert abs(contrastive_loss(T.Tensor([0.6]), none, _cfg()).item() - LN2) < 1e-9
    assert abs(contrastive_loss(none, T.Tensor([0.4]), _cfg()).item() - LN2) < 1e-9
    with pytest.raises(ValueError):
        contrastive_loss(none, none, _cfg())


def test_contrastive_monotone_and_positive():
    cfg = _cfg()
    none = T.Tensor(np.empty(0))
    for s in (0.2, 0.5, 0.61, 0.9):
        better = contrastive_loss(T.Tensor([s + 0.05]), none, cfg).item()
        worse = contrastive_loss(T.Tensor([s]), none, cfg).item()
        assert 0.0 < better < worse
    for s in (0.1, 0.39, 0.5, 0.8):
        better = contrastive_loss(none, T.Tensor([s]), cfg).item()
        worse = contrastive_loss(none, T.Tensor([s + 0.05]), cfg).item()
        assert 0.0 < better < worse


# ----------------------------------------------------------- alignment term

def test_align_single_pair_at_bound():
    t = T.Tensor([[1.0, 0.0, 0.0]])
    i = T.Tensor([[0.6, 0.8, 0.0]])
    loss = align_loss(t, i, [0], _cfg())
    assert abs(loss.item() - 2.0 * LN2) < 1e-9


def test_align_two_identities_at_both_bounds():
    z = math.sqrt(1.0 - 0.6 ** 2 - 0.4 ** 2)
    t = T.Tensor([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    i = T.Tensor([[0.6, 0.4, z], [0.4, 0.6, z]])
    loss = align_loss(t, i, [0, 1], _cfg())
    assert abs(loss.item() - 4.0 * LN2) < 1e-9


def test_align_validation():
    t = T.Tensor([[1.0, 0.0]])
    with pytest.raises(T.ShapeError):
        align_loss(t, T.Tensor([[1.0, 0.0], [0.0, 1.0]]), [0], _cfg())
    with pytest.raises(T.ShapeError):
        align_loss(t, t, [0, 1], _cfg())


def test_align_gradients_reach_both_sides():
    rng = derive_rng(2, 94)
    tp = T.parameter(rng.normal(size=(3, 4)))
    ip = T.parameter(rng.normal(size=(3, 4)))
    loss = align_loss(tp, ip, [0, 1, 2], _cfg())
    grads = T.backward(loss, wrt=[tp, ip])
    assert np.any(grads[tp] != 0.0)
    assert np.any(grads[ip] != 0.0)


# --------------------------------------------------- fusion / guidance terms

def test_fuse_single_identity_anchor():
    bank = _bank(1, 3, rows=[[1.0, 0.0, 0.0]])
    reps = T.Tensor([[0.6, 0.8, 0.0], [0.6, 0.0, 0.8]])
    loss = fuse_loss(bank, reps, [0, 0], _cfg())
    assert abs(loss.item() - LN2) < 1e-9


def test_guide_single_identity_anchor():
    bank = _bank(1, 3, rows=[[1.0, 0.0, 0.0]])
    reps = T.Tensor([[0.6, 0.8, 0.0], [0.6, 0.0, 0.8]])
    loss = guide_loss(reps, bank, [0, 0], _cfg())
    assert abs(loss.item() - LN2) < 1e-9


def test_fuse_updates_bank_only():
    bank = _bank(2, 4)
    p = T.parameter(derive_rng(3, 94).normal(size=(4, 4)))
    reps = T.l2_normalize(p)
    loss = fuse_loss(bank, reps, [0, 0, 1, 1], _cfg())
    grads = T.backward(loss, wrt=[p, bank.ref])
    assert np.all(grads[p] == 0.0)
    assert np.any(grads[bank.ref] != 0.0)


def test_guide_updates_features_only():
    bank = _bank(2, 4)
    p = T.parameter(derive_rng(4, 94).normal(size=(4, 4)))
    reps = T.l2_normalize(p)
    loss = guide_loss(reps, bank, [0, 0, 1, 1], _cfg())
    grads = T.backward(loss, wrt=[p, bank.ref])
    assert np.all(grads[bank.ref] == 0.0)
    assert np.any(grads[p] != 0.0)


@pytest.mark.parametrize("wide", [False, True])
def test_guide_gather_equals_permuted_gather(wide):
    """guide_loss reads its pairs off the (features x references) matrix
    in reference-major order; that is the same elements, summed in the
    same order, as gathering them from the matrix's transpose."""
    bank = _bank(4, 8, seed=7)
    p = T.parameter(derive_rng(7, 94).normal(size=(6, 8)))
    labels = np.array([2, 0, 2, 0, 3, 3])
    cfg = _cfg(bank_wide_negatives=wide)
    ref_ids = np.arange(4) if wide else np.array([2, 0, 3])

    reps = T.l2_normalize(p)
    new = guide_loss(reps, bank, labels, cfg)
    sim = T.permute(T.cosine_matrix(reps, T.stop_gradient(bank.rows_for(ref_ids))),
                    (1, 0))
    same = ref_ids[:, None] == labels[None, :]
    old = T.scale(contrastive_loss(T.take(sim, *np.nonzero(same)),
                                   T.take(sim, *np.nonzero(~same)), cfg), 1.0 / 6)
    assert new.data.tobytes() == old.data.tobytes()
    assert T.backward(new, wrt=[p])[p].tobytes() == T.backward(old, wrt=[p])[p].tobytes()


def test_bank_wide_negatives_add_rows():
    bank = _bank(3, 4, seed=5)
    reps = T.l2_normalize(T.Tensor(derive_rng(5, 94).normal(size=(2, 4))))
    labels = [0, 0]
    local = fuse_loss(bank, reps, labels, _cfg())
    wide = fuse_loss(bank, reps, labels, _cfg(bank_wide_negatives=True))
    assert wide.item() > local.item()   # same positives plus real negatives
    g_local = T.backward(fuse_loss(bank, reps, labels, _cfg()),
                         wrt=[bank.ref])[bank.ref]
    g_wide = T.backward(fuse_loss(bank, reps, labels, _cfg(bank_wide_negatives=True)),
                        wrt=[bank.ref])[bank.ref]
    assert np.all(g_local[1:] == 0.0)
    assert np.any(g_wide[1] != 0.0) and np.any(g_wide[2] != 0.0)


def test_fuse_validation():
    bank = _bank(1, 4)
    with pytest.raises(T.ShapeError):
        fuse_loss(bank, T.Tensor(np.ones(4)), [0], _cfg())
    with pytest.raises(T.ShapeError):
        guide_loss(T.Tensor(np.ones((2, 4))), bank, [0], _cfg())


# ------------------------------------------------------- reconstruction term

def test_rec_uniform_is_log_vocab():
    probs = T.Tensor(np.full((4, 11), 1.0 / 11.0))
    loss = rec_loss(probs, [0, 3, 7, 10])
    assert abs(loss.item() - math.log(11.0)) < 1e-12


def test_rec_one_hot_is_zero():
    probs = np.zeros((3, 5))
    probs[[0, 1, 2], [4, 0, 2]] = 1.0
    assert rec_loss(T.Tensor(probs), [4, 0, 2]).item() == 0.0


def test_rec_matches_direct_enumeration():
    rng = derive_rng(6, 94)
    logits = rng.normal(size=(3, 5))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    targets = rng.integers(0, 5, size=3)
    expect = -np.mean([math.log(probs[i, targets[i]] + 1e-300) for i in range(3)])
    assert abs(rec_loss(T.Tensor(probs), targets).item() - expect) < 1e-12


def test_rec_no_positions_no_loss():
    loss = rec_loss(T.Tensor(np.ones((0, 5))), np.empty(0, dtype=np.int64))
    assert loss.item() == 0.0


def test_rec_validation():
    probs = T.Tensor(np.full((2, 4), 0.25))
    with pytest.raises(ValueError):
        rec_loss(probs, [0, 4])
    with pytest.raises(T.ShapeError):
        rec_loss(probs, [0])
    with pytest.raises(T.ShapeError):
        rec_loss(T.Tensor(np.ones(4)), [0])


# ---------------------------------------------------------------- total loss

def test_total_weighted_sum():
    one = T.Tensor(1.0)
    total = total_loss(one, one, one, one, _cfg())
    assert total.item() == 1.0 + 0.25 + 0.25 + 4.0


def test_total_drops_absent_parts():
    align = T.Tensor(2.0)
    assert total_loss(align, None, None, None, _cfg()) is align
    partial = total_loss(align, T.Tensor(1.0), None, None, _cfg())
    assert partial.item() == 2.25
