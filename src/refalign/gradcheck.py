"""Finite-difference verification of every operator and loss.

Each named check runs a number of randomized trials and reports the
worst relative error between backward() and central differences.  The
suite is what the gradcheck command executes; tests reuse it and add the
corrupted-rule negative control below.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import derive_rng
from .encoders import EncoderConfig, ImageEncoder, TextEncoder
from .losses import (LossConfig, align_loss, contrastive_loss, fuse_loss,
                     guide_loss, rec_loss, total_loss)
from .reference import LocalReconstructor, ReferenceBank
from .tensor import Tensor, finite_difference_check

TOLERANCE = 1e-4
_STREAM_CHECK = 71


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tolerance


def _p(rng, *shape, name=None):
    return T.parameter(rng.normal(size=shape), name)


# each check: callable(rng) -> max relative error for one trial
def _check_add(rng):
    a, b = _p(rng, 3, 4), _p(rng, 3, 4)
    bias = _p(rng, 4)
    return finite_difference_check(
        lambda: T.sum_all(T.mul(T.add(a, b), T.add(a, bias))), [a, b, bias])


def _check_mul(rng):
    a, b = _p(rng, 4, 3), _p(rng, 4, 3)
    return finite_difference_check(lambda: T.sum_all(T.mul(a, b)), [a, b])


def _check_scale_shift(rng):
    a = _p(rng, 3, 3)
    return finite_difference_check(
        lambda: T.sum_all(T.mul(T.scale(a, -2.5), T.shift(a, 0.7))), [a])


def _check_matmul(rng):
    # a plain matrix on the right, under a matrix and a (B, L, n) batch
    a, x, b = _p(rng, 3, 4), _p(rng, 2, 3, 4), _p(rng, 4, 2)
    return finite_difference_check(
        lambda: T.sum_all(T.matmul(a, b)) + T.sum_all(T.tanh(T.matmul(x, b))), [a, x, b])


def _check_linear(rng):
    a, x = _p(rng, 3, 4), _p(rng, 2, 3, 4)
    w, b = _p(rng, 4, 5), _p(rng, 5)
    return finite_difference_check(
        lambda: T.sum_all(T.tanh(T.linear(a, w, b))) + T.sum_all(T.tanh(T.linear(x, w, b))),
        [a, x, w, b])


def _check_log(rng):
    a = T.parameter(np.abs(rng.normal(size=(3, 3))) + 0.5)
    return finite_difference_check(lambda: T.sum_all(T.log(a)), [a])


def _check_tanh(rng):
    a = _p(rng, 2, 6)
    return finite_difference_check(lambda: T.sum_all(T.tanh(a)), [a])


def _check_softplus(rng):
    a = T.parameter(rng.normal(size=(2, 5)) * 10.0)
    return finite_difference_check(lambda: T.sum_all(T.softplus(a)), [a])


def _check_row_softmax(rng):
    a = _p(rng, 3, 6)
    w = _p(rng, 3, 6)
    return finite_difference_check(lambda: T.sum_all(T.mul(T.row_softmax(a), w)), [a, w])


def _check_layer_norm(rng):
    a, g, b = _p(rng, 3, 6), _p(rng, 6), _p(rng, 6)
    w = _p(rng, 3, 6)
    return finite_difference_check(lambda: T.sum_all(T.mul(T.layer_norm(a, g, b), w)), [a, g, b, w])


def _check_l2_normalize(rng):
    a = T.parameter(rng.normal(size=(3, 5)) + np.sign(rng.normal(size=(3, 5))) * 0.2)
    w = _p(rng, 3, 5)
    return finite_difference_check(lambda: T.sum_all(T.mul(T.l2_normalize(a), w)), [a, w])


def _check_take(rng):
    # every index pattern the model gathers with: repeated and 2-d row ids,
    # a row broadcast over positions, (row, col) elements of a matrix, and
    # (row, position) states of a (B, L, d) tensor
    a, x = _p(rng, 6, 4), _p(rng, 3, 5, 4)
    ids = rng.integers(0, 6, size=(2, 5))
    spread = np.broadcast_to(np.arange(6)[:, None], (6, 3))
    er, ec = rng.integers(0, 6, size=7), rng.integers(0, 4, size=7)
    xr, xc = rng.integers(0, 3, size=5), rng.integers(0, 5, size=5)

    def sq(t):
        return T.sum_all(T.mul(t, t))

    return finite_difference_check(
        lambda: sq(T.take(a, ids)) + sq(T.take(a, spread))
        + sq(T.take(a, er, ec)) + sq(T.take(x, xr, xc)), [a, x])


def _check_concat_mean(rng):
    a, b = _p(rng, 2, 4), _p(rng, 3, 4)
    return finite_difference_check(
        lambda: T.mean_all(T.mul(T.concat_rows([a, b]), T.concat_rows([a, b]))),
        [a, b])


def _check_cosine_matrix(rng):
    a, b = _p(rng, 3, 5), _p(rng, 4, 5)
    w = _p(rng, 3, 4)
    return finite_difference_check(lambda: T.sum_all(T.mul(T.cosine_matrix(a, b), w)), [a, b, w])


def _check_attention(rng):
    q, k, v = _p(rng, 2, 3, 8), _p(rng, 2, 4, 8), _p(rng, 2, 4, 8)
    mask = np.array([[True, True, True, False], [True, False, True, True]])
    w = _p(rng, 2, 3, 8)
    return finite_difference_check(
        lambda: T.sum_all(T.mul(T.attention(q, k, v, 2, mask), w))
        + T.mean_all(T.attention(q, k, v, 4)), [q, k, v, w])


def _check_feed_forward(rng):
    x = _p(rng, 2, 3, 4)
    params = [_p(rng, 4), _p(rng, 4), _p(rng, 4, 6), _p(rng, 6), _p(rng, 6, 4), _p(rng, 4)]
    w = _p(rng, 2, 3, 4)
    return finite_difference_check(
        lambda: T.sum_all(T.mul(T.feed_forward(x, *params), w)), [x, *params])


def _check_contrastive(rng):
    sp = T.parameter(np.tanh(rng.normal(size=4)))
    sn = T.parameter(np.tanh(rng.normal(size=5)))
    cfg = LossConfig()
    return finite_difference_check(lambda: contrastive_loss(sp, sn, cfg), [sp, sn])


def _check_align_loss(rng):
    t, i = _p(rng, 4, 6), _p(rng, 4, 6)
    labels = rng.integers(0, 3, size=4)
    cfg = LossConfig()
    return finite_difference_check(
        lambda: align_loss(T.l2_normalize(t), T.l2_normalize(i), labels, cfg), [t, i])


def _tiny_bank(rng, m=3, d=6):
    # unit-scale rows: at the production init scale (std 0.02) the cosine
    # curvature is so steep that central differences at step 1e-4 drown
    # in truncation error even for a correct gradient
    bank = ReferenceBank(m, d, rng)
    bank.ref.data[...] = rng.normal(size=bank.ref.shape)
    return bank


def _check_fuse_loss(rng):
    bank = _tiny_bank(rng)
    reps = _p(rng, 4, 6)
    labels = np.array([0, 0, 1, 2])
    cfg = LossConfig()
    return finite_difference_check(
        lambda: fuse_loss(bank, T.l2_normalize(reps), labels, cfg), [bank.ref])


def _check_guide_loss(rng):
    bank = _tiny_bank(rng)
    reps = _p(rng, 4, 6)
    labels = np.array([0, 1, 1, 2])
    cfg = LossConfig()
    return finite_difference_check(
        lambda: guide_loss(T.l2_normalize(reps), bank, labels, cfg), [reps])


def _check_rec_loss(rng):
    logits = _p(rng, 4, 7)
    targets = rng.integers(0, 7, size=4)
    return finite_difference_check(
        lambda: rec_loss(T.row_softmax(logits), targets), [logits])


def _check_total_loss(rng):
    # each part gets its own leaves so no perturbed tensor also feeds a
    # detached branch; finite differences cannot see stop-gradient
    # barriers, so overlapping leaves would measure sensitivity the
    # analytic gradient correctly excludes
    t, i = _p(rng, 4, 6), _p(rng, 4, 6)
    labels = np.array([0, 0, 1, 1])
    rep_labels = np.concatenate([labels, labels])
    bank = _tiny_bank(rng, m=2)
    bank_fixed = _tiny_bank(rng, m=2)
    reps_fixed = T.Tensor(rng.normal(size=(8, 6)))
    reps_live = _p(rng, 8, 6)
    logits = _p(rng, 3, 5)
    targets = rng.integers(0, 5, size=3)
    cfg = LossConfig()

    def f():
        tg = T.l2_normalize(t)
        ig = T.l2_normalize(i)
        return total_loss(align_loss(tg, ig, labels, cfg),
                          fuse_loss(bank, T.l2_normalize(reps_fixed),
                                    rep_labels, cfg),
                          rec_loss(T.row_softmax(logits), targets),
                          guide_loss(T.l2_normalize(reps_live), bank_fixed,
                                     rep_labels, cfg), cfg)

    return finite_difference_check(f, [t, i, bank.ref, reps_live, logits])


def _check_total_loss_linearity(rng):
    # on the shared-representation graph used in training, the gradient
    # of the weighted sum must equal the weighted sum of part gradients
    t, i = _p(rng, 4, 6), _p(rng, 4, 6)
    labels = np.array([0, 0, 1, 1])
    rep_labels = np.concatenate([labels, labels])
    bank = _tiny_bank(rng, m=2)
    logits = _p(rng, 3, 5)
    targets = rng.integers(0, 5, size=3)
    cfg = LossConfig()
    leaves = [t, i, bank.ref, logits]

    def parts():
        tg = T.l2_normalize(t)
        ig = T.l2_normalize(i)
        reps = T.concat_rows([tg, ig])
        return (align_loss(tg, ig, labels, cfg),
                fuse_loss(bank, reps, rep_labels, cfg),
                rec_loss(T.row_softmax(logits), targets),
                guide_loss(reps, bank, rep_labels, cfg))

    a, fu, re, gu = parts()
    whole = T.backward(total_loss(a, fu, re, gu, cfg), wrt=leaves)
    pieces = [T.backward(term, wrt=leaves) for term in parts()]
    weights = (1.0, cfg.fusion_weight, cfg.reconstruction_weight,
               cfg.guidance_weight)
    err = 0.0
    for leaf in leaves:
        summed = sum(w * g[leaf] for w, g in zip(weights, pieces))
        denom = max(1.0, float(np.max(np.abs(summed))))
        err = max(err, float(np.max(np.abs(whole[leaf] - summed))) / denom)
    return err


def _check_image_encoder(rng):
    cfg = EncoderConfig(d=6, n_blocks=1, n_heads=2, vocab_size=8,
                        max_seq_len=4)
    enc = ImageEncoder(cfg, 5, rng)
    x = rng.normal(size=(3, 5))
    w = _p(rng, 3, 6)
    return finite_difference_check(
        lambda: T.sum_all(T.mul(enc.encode_batch(x), w)), enc.parameters())


def _check_text_encoder(rng):
    cfg = EncoderConfig(d=8, n_blocks=1, n_heads=2, vocab_size=12,
                        max_seq_len=6)
    enc = TextEncoder(cfg, rng)
    seqs = [np.array([2, 5, 7, 3]), np.array([2, 9, 3])]

    def f():
        g, toks, _ = enc.encode_batch(seqs)
        return T.mean_all(T.cosine_matrix(g, g)) + T.mean_all(toks)

    # smaller step: the deep composite's curvature dominates at 1e-4
    return finite_difference_check(f, enc.parameters(), step=3e-5)


def _check_reconstructor(rng):
    d, heads, vocab = 8, 2, 9
    recon = LocalReconstructor(d, heads, vocab, rng, n_stages=1)
    states = _p(rng, 2, 4, d)
    refs = _p(rng, 2, d)
    rows = np.array([0, 1, 1])
    cols = np.array([2, 0, 3])
    targets = np.array([1, 4, 8])

    def f():
        return rec_loss(recon(states, refs, rows, cols), targets)

    self_block, ref_stage = recon.stages[0]
    wrt = [states, refs, recon.w_in, recon.w_val, recon.w_head,
           self_block.wk, ref_stage.wo]
    return finite_difference_check(f, wrt)


CHECKS = {
    "add": _check_add,
    "mul": _check_mul,
    "scale_shift": _check_scale_shift,
    "matmul": _check_matmul,
    "linear": _check_linear,
    "log": _check_log,
    "tanh": _check_tanh,
    "softplus": _check_softplus,
    "row_softmax": _check_row_softmax,
    "layer_norm": _check_layer_norm,
    "l2_normalize": _check_l2_normalize,
    "take": _check_take,
    "concat_mean": _check_concat_mean,
    "cosine_matrix": _check_cosine_matrix,
    "attention": _check_attention,
    "feed_forward": _check_feed_forward,
    "contrastive_loss": _check_contrastive,
    "align_loss": _check_align_loss,
    "fuse_loss": _check_fuse_loss,
    "guide_loss": _check_guide_loss,
    "rec_loss": _check_rec_loss,
    "total_loss": _check_total_loss,
    "total_loss_linearity": _check_total_loss_linearity,
    "image_encoder": _check_image_encoder,
    "text_encoder": _check_text_encoder,
    "reconstructor": _check_reconstructor,
}

# module composites are not per-operator contracts; cap their trials so
# the whole suite stays well inside its time budget
_SLOW = {"text_encoder": 4, "reconstructor": 4, "image_encoder": 10}


def run_checks(trials: int = 20, seed: int = 0, names=None,
               tolerance: float = TOLERANCE) -> list[CheckResult]:
    results = []
    for index, (name, fn) in enumerate(CHECKS.items()):
        if names is not None and name not in names:
            continue
        n = min(trials, _SLOW.get(name, trials))
        worst = 0.0
        for t in range(n):
            rng = derive_rng(seed, _STREAM_CHECK, index, t)
            worst = max(worst, fn(rng))
        results.append(CheckResult(name, worst, tolerance))
    return results


def stop_gradient_contracts(trials: int = 10, seed: int = 0) -> list[CheckResult]:
    """Bitwise-zero gradient checks for the two detached losses."""
    cfg = LossConfig()
    worst_fuse = 0.0
    worst_guide = 0.0
    for t in range(trials):
        rng = derive_rng(seed, _STREAM_CHECK, 999, t)
        bank = _tiny_bank(rng)
        feats = _p(rng, 4, 6)
        labels = rng.integers(0, 3, size=4)
        reps = T.l2_normalize(feats)
        g_fuse = T.backward(fuse_loss(bank, reps, labels, cfg), wrt=[feats])[feats]
        g_guide = T.backward(guide_loss(reps, bank, labels, cfg), wrt=[bank.ref])[bank.ref]
        worst_fuse = max(worst_fuse, float(np.abs(g_fuse).max(initial=0.0)))
        worst_guide = max(worst_guide, float(np.abs(g_guide).max(initial=0.0)))
    return [CheckResult("fuse_loss_detaches_features", worst_fuse, np.nextafter(0, 1)),
            CheckResult("guide_loss_detaches_bank", worst_guide, np.nextafter(0, 1))]


def corrupted_backward_error(seed: int = 0) -> float:
    """Negative control: a multiply whose backward rule is wrong by
    construction.  The harness must flag it."""
    rng = derive_rng(seed, _STREAM_CHECK, 31337)
    a, b = _p(rng, 3, 3), _p(rng, 3, 3)

    def bad_mul(x, y):
        return Tensor._result("bad_mul", x.data * y.data, (x, y),
                              (lambda g: g * (y.data + 1.0), lambda g: g * x.data))

    return finite_difference_check(lambda: T.sum_all(bad_mul(a, b)), [a])


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  max-err {r.max_err:.3e}  "
                     f"tol {r.tolerance:.0e}  {status}")
    return "\n".join(lines)
