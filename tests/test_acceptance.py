"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (straight to the real stdout, so the
lines survive capture) and then asserts.  The ablation fixture trains
three variants over three seeds and is shared by the two trend checks;
expect the full module to take a few minutes.
"""
import math
import shutil
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from refalign import tensor as T
from refalign.config import RunConfig, trend_protocol_config
from refalign.data import (BOS_ID, EOS_ID, MASK_ID, N_SPECIAL, CorpusConfig,
                           derive_rng, generate_corpus, save_corpus)
from refalign.encoders import EncoderConfig
from refalign.evaluation import (ap_at_n, mean_average_precision, rank_at_k,
                                 run_retrieval)
from refalign.gradcheck import run_checks, stop_gradient_contracts
from refalign.losses import (LossConfig, contrastive_loss, fuse_loss,
                             guide_loss, rec_loss)
from refalign.model import model_for_corpus
from refalign.reference import ReferenceBank, mask_tokens
from refalign.train import ablate, masked_eval, train


def _report(capfd, n: int, label: str, ok: bool) -> None:
    # suspend fd capture so the line reaches the terminal either way
    with capfd.disabled():
        print(f"criterion {n:>2}: {'PASS' if ok else 'FAIL'} - {label}",
              file=sys.stdout, flush=True)
    assert ok, f"criterion {n} failed: {label}"


@pytest.fixture(scope="module")
def trend(tmp_path_factory):
    out = tmp_path_factory.mktemp("trend")
    base = trend_protocol_config(out_dir=str(out))
    start = time.perf_counter()
    report = ablate(base, seeds=(0, 1, 2))
    return report, time.perf_counter() - start


def test_criterion_01_gradient_suite(capfd):
    start = time.perf_counter()
    results = run_checks(trials=20, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(r.max_err for r in results)
    ok = all(r.passed for r in results) and worst < 1e-4 and elapsed < 60.0
    _report(capfd, 1, f"gradient suite, {len(results)} checks, worst {worst:.2e}, "
               f"{elapsed:.1f}s", ok)


def test_criterion_02_stop_gradient_contracts(capfd):
    results = stop_gradient_contracts(trials=10, seed=0)
    ok = len(results) == 2 and all(r.max_err == 0.0 for r in results)
    _report(capfd, 2, "detached losses leave bitwise-zero gradients", ok)


def test_criterion_03_loss_anchors(capfd):
    pair = contrastive_loss(T.Tensor([0.6]), T.Tensor([0.4]), LossConfig())
    bank = ReferenceBank(1, 3, derive_rng(0, 80))
    bank.ref.data[:] = np.array([[1.0, 0.0, 0.0]])
    reps = T.Tensor([[0.6, 0.8, 0.0], [0.6, 0.0, 0.8]])
    fused = fuse_loss(bank, reps, [0, 0], LossConfig())
    guided = guide_loss(reps, bank, [0, 0], LossConfig())
    uniform = rec_loss(T.Tensor(np.full((4, 13), 1.0 / 13.0)), [0, 5, 9, 12])
    errs = (abs(pair.item() - 2.0 * math.log(2.0)),
            abs(fused.item() - math.log(2.0)),
            abs(guided.item() - math.log(2.0)),
            abs(uniform.item() - math.log(13.0)))
    _report(capfd, 3, f"loss anchors, worst {max(errs):.2e}", max(errs) < 1e-9)


def _oracle_order(scores):
    return [sorted(range(len(row)), key=lambda j: (-row[j], j)) for row in scores]


def _oracle_rank_at_k(scores, relevance, k):
    hits = sum(1 for q, order in enumerate(_oracle_order(scores))
               if any(relevance[q][j] for j in order[:k]))
    return float(hits) / len(scores) * 100.0


def _oracle_map(scores, relevance):
    aps = []
    for q, order in enumerate(_oracle_order(scores)):
        found, precisions = 0, []
        for rank, j in enumerate(order, start=1):
            if relevance[q][j]:
                found += 1
                precisions.append(float(found) / rank)
        aps.append(float(np.sum(np.asarray(precisions))) / found)
    return float(np.sum(np.asarray(aps))) / len(aps)


def _oracle_ap_at_n(scores, queries, gallery, n):
    per_class = {}
    for q, order in enumerate(_oracle_order(scores)):
        same = sum(1 for j in order[:n] if gallery[j] == queries[q])
        per_class.setdefault(queries[q], []).append(same / n)
    means = [float(np.sum(np.asarray(v))) / len(v)
             for _, v in sorted(per_class.items())]
    return float(np.sum(np.asarray(means))) / len(means) * 100.0


def test_criterion_04_metric_oracles(capfd):
    rng = derive_rng(0, 81)
    mismatches = 0
    for _ in range(20):
        nq, ng = int(rng.integers(2, 51)), int(rng.integers(2, 51))
        gallery = rng.integers(0, int(rng.integers(1, 6)), size=ng)
        queries = gallery[rng.integers(0, ng, size=nq)]
        scores = np.round(rng.normal(size=(nq, ng)), 2)
        relevance = queries[:, None] == gallery[None, :]
        n = min(10, ng)
        checks = (
            rank_at_k(scores, relevance, 1) == _oracle_rank_at_k(scores, relevance, 1),
            rank_at_k(scores, relevance, 5) == _oracle_rank_at_k(scores, relevance, 5),
            rank_at_k(scores, relevance, 10) == _oracle_rank_at_k(scores, relevance, 10),
            mean_average_precision(scores, relevance) == _oracle_map(scores, relevance),
            ap_at_n(scores, queries, gallery, n) == _oracle_ap_at_n(scores, queries, gallery, n),
        )
        mismatches += sum(not c for c in checks)
    _report(capfd, 4, "metrics equal brute-force oracles exactly on 20 instances",
            mismatches == 0)


def test_criterion_05_refinement_consistency(capfd):
    # rotation invariance with an orthonormal square bank
    cc = CorpusConfig(n_train_identities=32, n_test_identities=8,
                      pairs_per_identity=2, n_slots=3, values_per_slot=5,
                      background_dims=4, seed=6)
    corpus = generate_corpus(cc)
    enc = EncoderConfig(d=32, n_heads=4)
    model = model_for_corpus(enc, corpus, seed=0)
    q, _ = np.linalg.qr(derive_rng(0, 82).normal(size=(32, 32)))
    model.bank.ref.data[:] = q
    worst = 0.0
    for direction in ("t2i", "i2t"):
        plain = run_retrieval(model, corpus, "test", direction, use_refine=False)
        refined = run_retrieval(model, corpus, "test", direction,
                                use_refine=True, w=0.5)
        worst = max(worst, max(abs(refined.metrics[k] - plain.metrics[k])
                               for k in plain.metrics))

    # overhead on a 1,000-item gallery, full scoring pass
    cc_big = CorpusConfig(n_train_identities=32, n_test_identities=250,
                          pairs_per_identity=4, n_slots=4, values_per_slot=5,
                          background_dims=4, seed=7)
    big = generate_corpus(cc_big)
    model_big = model_for_corpus(replace(enc),
                                 big, seed=0)
    assert len(big.test_pairs) == 1000

    def clock(use_refine):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            run_retrieval(model_big, big, "test", "t2i", use_refine=use_refine)
            best = min(best, time.perf_counter() - t0)
        return best

    base_t = clock(False)
    refine_t = clock(True)
    overhead = (refine_t - base_t) / base_t
    ok = worst < 1e-9 and overhead < 0.10
    _report(capfd, 5, f"orthonormal-bank agreement {worst:.2e}, "
               f"rerank overhead {overhead * 100:+.1f}%", ok)


def test_criterion_06_ablation_trend(trend, capfd):
    report, elapsed = trend
    r1 = {v["variant"]: v["mean"]["R@1"] for v in report["variants"]}
    ok = (r1["Baseline"] < r1["A"] <= r1["C"]
          and r1["Full"] >= r1["C"] - 0.5
          and r1["Full"] - r1["Baseline"] >= 2.0
          and elapsed < 15 * 60)
    summary = " ".join(f"{name}={r1[name]:.2f}" for name in
                       ("Baseline", "A", "B", "C", "Full"))
    _report(capfd, 6, f"ablation ordering [{summary}] in {elapsed / 60:.1f} min", ok)


def test_criterion_07_w_sweep_shape(trend, capfd):
    report, _ = trend
    r1 = {entry["w"]: entry["mean"]["R@1"] for entry in report["sweep"]}
    ok = r1[0.3] >= r1[0.0] and r1[0.5] >= r1[0.0]
    _report(capfd, 7, f"w sweep R@1 w0={r1[0.0]:.2f} w0.3={r1[0.3]:.2f} "
               f"w0.5={r1[0.5]:.2f}", ok)


def test_criterion_08_reconstruction_efficacy(tmp_path, capfd):
    # an easy single-identity corpus must be memorized outright
    cc = CorpusConfig(n_train_identities=1, n_test_identities=1,
                      pairs_per_identity=4, p_drop=0.0, p_swap=0.0)
    overfit_cfg = RunConfig(
        corpus=cc,
        encoder=EncoderConfig(d=32),
        batch_identities=1, batch_pairs=2, epochs=300, warmup_epochs=2,
        eval_every=0, run_id="overfit",
        out_dir=str(tmp_path / "overfit")).with_variant("C")
    res = train(overfit_cfg)
    memorized = masked_eval(res.model, res.corpus, split="train",
                            ratio=0.15, seed=0)

    # reconstruction weight on vs off, corpus-level perplexity, 3 seeds
    cc2 = CorpusConfig(n_train_identities=24, n_test_identities=8,
                       pairs_per_identity=2)
    base = RunConfig(
        corpus=cc2,
        encoder=EncoderConfig(d=32),
        batch_identities=8, batch_pairs=2, epochs=10, warmup_epochs=2,
        eval_every=0, run_id="lam",
        out_dir=str(tmp_path / "lam")).with_variant("C")
    ppl = {}
    for weight in (0.25, 0.0):
        runs = []
        for seed in (0, 1, 2):
            cfg = replace(base.with_seed(seed),
                          loss=LossConfig(reconstruction_weight=weight),
                          run_id=f"lam-{weight}-s{seed}")
            out = train(cfg)
            runs.append(masked_eval(out.model, out.corpus, split="train",
                                    ratio=0.15, seed=0)["perplexity"])
        ppl[weight] = float(np.mean(runs))
    ok = memorized["accuracy"] == 1.0 and ppl[0.25] < ppl[0.0]
    _report(capfd, 8, f"overfit accuracy {memorized['accuracy'] * 100:.0f}%, "
               f"perplexity {ppl[0.25]:.1f} (weighted) vs {ppl[0.0]:.1f} (off)", ok)


def test_criterion_09_determinism(tmp_path, capfd):
    cc = CorpusConfig(n_train_identities=12, n_test_identities=6,
                      pairs_per_identity=2, n_slots=3, values_per_slot=5,
                      background_dims=4, seed=2)
    cfg = RunConfig(corpus=cc,
                    encoder=EncoderConfig(d=16, n_heads=4),
                    epochs=3, warmup_epochs=1, batch_identities=4,
                    batch_pairs=2, eval_every=0, run_id="rerun",
                    out_dir=str(tmp_path / "runs")).with_variant("Full")

    def run_once():
        res = train(cfg)
        blobs = (open(res.checkpoint_path, "rb").read(),
                 open(res.metrics_jsonl, "rb").read(),
                 open(res.metrics_csv, "rb").read())
        shutil.rmtree(cfg.out_dir)
        return blobs

    corpus_files = []
    for name in ("a.bin", "b.bin"):
        path = str(tmp_path / name)
        save_corpus(generate_corpus(cc), path)
        corpus_files.append(open(path, "rb").read())
    ok = run_once() == run_once() and corpus_files[0] == corpus_files[1]
    _report(capfd, 9, "rerun reproduces corpus, metrics, and checkpoint bitwise", ok)


def test_criterion_10_masking_protocol(capfd):
    rng = derive_rng(0, 83)
    bad = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 41))
        body = (N_SPECIAL + rng.integers(0, 9, size=m)).astype(np.int64)
        tokens = np.concatenate(([BOS_ID], body, [EOS_ID]))
        out = mask_tokens(tokens, 0.15, rng)
        want = max(1, round(0.15 * m))
        if (out.positions.size != want
                or np.any(out.tokens[out.positions] != MASK_ID)):
            bad += 1
    _report(capfd, 10, "mask counts equal round(0.15 x maskable), floor 1, "
                "over 10^4 sequences", bad == 0)
