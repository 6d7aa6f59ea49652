"""Retrieval metrics against brute-force oracles.

The oracles below re-derive every metric with explicit Python loops and
sorted() so they share no code with the library; sums go through np.sum
so both sides reduce in the same order and the comparison can demand
exact equality.
"""
import sys
import threading

import numpy as np
import pytest

from refalign import evaluation, refinement
from refalign.config import RunConfig, trend_protocol_config
from refalign.data import CorpusConfig, derive_rng, generate_corpus
from refalign.evaluation import (ENCODE_CHUNK, RANK_BLOCK, ap_at_n,
                                 encode_split, mean_average_precision,
                                 rank_at_k, ranking, run_retrieval,
                                 score_split)
from refalign.model import EncoderConfig, model_for_corpus


def _oracle_order(scores):
    # descending score, ties to the lower gallery index
    return [sorted(range(len(row)), key=lambda j: (-row[j], j)) for row in scores]


def _oracle_rank_at_k(scores, relevance, k):
    hits = 0
    for q, order in enumerate(_oracle_order(scores)):
        if any(relevance[q][j] for j in order[:k]):
            hits += 1
    return float(hits) / len(scores) * 100.0


def _oracle_map(scores, relevance):
    aps = []
    for q, order in enumerate(_oracle_order(scores)):
        found = 0
        precisions = []
        for rank, j in enumerate(order, start=1):
            if relevance[q][j]:
                found += 1
                precisions.append(float(found) / rank)
        aps.append(float(np.sum(np.asarray(precisions))) / found)
    return float(np.sum(np.asarray(aps))) / len(aps)


def _oracle_ap_at_n(scores, query_classes, gallery_classes, n):
    fracs = {}
    for q, order in enumerate(_oracle_order(scores)):
        same = sum(1 for j in order[:n] if gallery_classes[j] == query_classes[q])
        fracs.setdefault(query_classes[q], []).append(same / n)
    means = [float(np.sum(np.asarray(v))) / len(v)
             for _, v in sorted(fracs.items())]
    return float(np.sum(np.asarray(means))) / len(means) * 100.0


def _random_instance(rng):
    nq = int(rng.integers(2, 51))
    ng = int(rng.integers(2, 51))
    n_classes = int(rng.integers(1, 6))
    gallery = rng.integers(0, n_classes, size=ng)
    queries = gallery[rng.integers(0, ng, size=nq)]  # every query resolvable
    scores = np.round(rng.normal(size=(nq, ng)), 2)  # coarse grid forces ties
    return scores, queries, gallery


def test_metrics_match_oracles_exactly():
    rng = derive_rng(31, 98)
    for _ in range(20):
        scores, queries, gallery = _random_instance(rng)
        relevance = queries[:, None] == gallery[None, :]
        n = min(10, scores.shape[1])
        assert rank_at_k(scores, relevance, 1) == _oracle_rank_at_k(scores, relevance, 1)
        assert rank_at_k(scores, relevance, 5) == _oracle_rank_at_k(scores, relevance, 5)
        assert rank_at_k(scores, relevance, 10) == _oracle_rank_at_k(scores, relevance, 10)
        assert mean_average_precision(scores, relevance) == _oracle_map(scores, relevance)
        assert ap_at_n(scores, queries, gallery, n) == \
            _oracle_ap_at_n(scores, queries, gallery, n)


def test_tied_scores_prefer_lower_gallery_index():
    scores = np.zeros((2, 4))
    order = ranking(scores)
    np.testing.assert_array_equal(order, [[0, 1, 2, 3], [0, 1, 2, 3]])
    relevance = np.array([[False, False, False, True],
                          [True, False, False, False]])
    assert rank_at_k(scores, relevance, 1) == 50.0
    assert mean_average_precision(scores, relevance) == (0.25 + 1.0) / 2


def _tie_heavy_cases():
    rng = derive_rng(36, 98)
    cases = {f"rounded to {d} decimals": np.round(rng.normal(size=(40, 30)), d)
             for d in (0, 1, 2)}
    base = np.round(rng.normal(size=(40, 12)), 3)
    cases["duplicated columns"] = base[:, rng.integers(0, 12, size=50)]
    cases["all-equal rows"] = np.full((5, 9), 0.25)
    signed = rng.choice([0.0, -0.0, 1.0, -1.0], size=(30, 20))
    assert np.signbit(signed[signed == 0.0]).any()
    cases["0.0 mixed with -0.0"] = signed
    cases["one column"] = rng.normal(size=(7, 1))
    cases["one row"] = np.round(rng.normal(size=(1, 60)), 1)
    # one, two and three blocks, the last one short, full or a single row
    for n in (RANK_BLOCK - 1, RANK_BLOCK, RANK_BLOCK + 1,
              2 * RANK_BLOCK - 1, 2 * RANK_BLOCK, 2 * RANK_BLOCK + 1):
        cases[f"{n} rows"] = np.round(rng.normal(size=(n, 25)), 1)
    cases["float32"] = np.round(rng.normal(size=(30, 40)), 1).astype(np.float32)
    cases["integer"] = rng.integers(-3, 4, size=(30, 40))
    cases["transposed"] = np.round(rng.normal(size=(40, RANK_BLOCK + 3)), 1).T
    return cases


@pytest.mark.parametrize("name", list(_tie_heavy_cases()))
def test_ranking_equals_stable_argsort_on_ties(name):
    scores = _tie_heavy_cases()[name]
    order = ranking(scores)
    assert order.shape == scores.shape
    assert np.array_equal(order, np.argsort(-scores, axis=1, kind="stable"))


def test_ranking_equals_stable_argsort_on_corpus_i2t(monkeypatch):
    # duplicate captions encode to identical text features, so every image
    # query sees tied gallery scores; the order holds on any thread count
    cc = CorpusConfig(n_train_identities=4, n_test_identities=75,
                      pairs_per_identity=4, n_slots=3, values_per_slot=5,
                      background_dims=4, p_drop=0.5, seed=8)
    corpus = generate_corpus(cc)
    model = model_for_corpus(EncoderConfig(d=16),
                             corpus, seed=2)
    text, image, _ = encode_split(model, corpus, "test")
    scores = refinement.cosine_scores(image, text)
    assert scores.shape[0] > 2 * RANK_BLOCK
    ranked = np.sort(scores, axis=1)
    assert (ranked[:, 1:] == ranked[:, :-1]).any(axis=1).all()
    expect = np.argsort(-scores, axis=1, kind="stable")
    # up to one thread per block, more than the cores, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
            assert np.array_equal(ranking(scores), expect)
    finally:
        sys.setswitchinterval(interval)


def test_ranking_refuses_non_finite_scores():
    for bad in (np.nan, np.inf, -np.inf):
        for row in (0, RANK_BLOCK - 1, RANK_BLOCK + 2):
            scores = np.zeros((3 * RANK_BLOCK + 5, 6))
            scores[row, 3] = bad
            # a later bad row, in a later block, is not the one named
            scores[-1, 0] = np.nan
            with pytest.raises(ValueError, match=f"query row {row} holds a non-finite"):
                ranking(scores)


def test_ranking_leaves_no_thread_behind():
    scores = np.round(derive_rng(37, 98).normal(size=(3 * RANK_BLOCK, 20)), 1)
    before = threading.active_count()
    ranking(scores)
    assert threading.active_count() == before
    scores[RANK_BLOCK, 0] = np.nan
    with pytest.raises(ValueError, match=f"query row {RANK_BLOCK} "):
        ranking(scores)
    assert threading.active_count() == before


def test_ranking_threads_follow_blocks_and_cpus(monkeypatch):
    # min(blocks, usable CPUs) threads, and inline when that is one: a
    # pool costs more than one block's sort
    scores = np.round(derive_rng(38, 98).normal(size=(3 * RANK_BLOCK, 20)), 1)
    one = scores[:RANK_BLOCK // 2]
    pools = []
    pool = evaluation.ThreadPoolExecutor
    monkeypatch.setattr(evaluation, "ThreadPoolExecutor",
                        lambda n: pools.append(n) or pool(n))
    for cpus, matrix, opened in ((2, scores, [2]), (2, one, []), (1, scores, [])):
        monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
        pools.clear()
        assert np.array_equal(ranking(matrix), np.argsort(-matrix, axis=1, kind="stable"))
        assert pools == opened
        bad = matrix.copy()
        bad[-1, 0] = np.nan
        with pytest.raises(ValueError, match=f"query row {len(bad) - 1} "):
            ranking(bad)


def test_recall_is_monotone_in_k():
    rng = derive_rng(32, 98)
    for _ in range(10):
        scores, queries, gallery = _random_instance(rng)
        relevance = queries[:, None] == gallery[None, :]
        r1 = rank_at_k(scores, relevance, 1)
        r5 = rank_at_k(scores, relevance, 5)
        r10 = rank_at_k(scores, relevance, 10)
        assert 0.0 <= r1 <= r5 <= r10 <= 100.0


def test_metrics_invariant_to_increasing_transforms():
    rng = derive_rng(33, 98)
    scores, queries, gallery = _random_instance(rng)
    relevance = queries[:, None] == gallery[None, :]
    for transform in (lambda s: 3.0 * s + 7.0, np.tanh):
        t = transform(scores)
        assert rank_at_k(t, relevance, 1) == rank_at_k(scores, relevance, 1)
        assert mean_average_precision(t, relevance) == \
            mean_average_precision(scores, relevance)
        assert ap_at_n(t, queries, gallery, 5) == ap_at_n(scores, queries, gallery, 5)


def test_perfect_and_half_resolved_anchors():
    # identity scores put the one relevant item first for every query
    scores = np.eye(4)
    relevance = np.eye(4, dtype=bool)
    assert rank_at_k(scores, relevance, 1) == 100.0
    assert mean_average_precision(scores, relevance) == 1.0
    # single relevant item at rank 2 of 2
    assert mean_average_precision(np.array([[1.0, 0.5]]),
                                  np.array([[False, True]])) == 0.5


def test_ap_at_one_matches_top_hit_rate_per_class():
    rng = derive_rng(34, 98)
    scores, queries, gallery = _random_instance(rng)
    top = gallery[ranking(scores)[:, 0]]
    rates = []
    for c in np.unique(queries):
        member_hits = (top[queries == c] == c)
        rates.append(float(np.sum(member_hits.astype(np.float64))) / member_hits.size)
    expect = float(np.sum(np.asarray(rates))) / len(rates) * 100.0
    assert ap_at_n(scores, queries, gallery, 1) == expect


def test_metric_validation():
    scores = np.ones((2, 3))
    ok = np.ones((2, 3), dtype=bool)
    with pytest.raises(ValueError, match="query 1"):
        rank_at_k(scores, np.array([[True, False, False]] + [[False] * 3]), 1)
    with pytest.raises(ValueError):
        rank_at_k(scores, ok, 0)
    with pytest.raises(ValueError):
        mean_average_precision(scores, np.ones((3, 2), dtype=bool))
    with pytest.raises(ValueError):
        ap_at_n(scores, [0, 1], [0, 1, 2], 4)
    with pytest.raises(ValueError):
        ap_at_n(scores, [0, 1], [0, 1], 1)
    with pytest.raises(ValueError):
        ranking(np.empty((0, 3)))


# --------------------------------------------------------------- end to end

def _micro_setup():
    cc = CorpusConfig(n_train_identities=6, n_test_identities=4,
                      pairs_per_identity=2, seed=3)
    corpus = generate_corpus(cc)
    cfg = RunConfig(corpus=cc,
                    encoder=EncoderConfig(d=16),
                    batch_identities=4, epochs=3, warmup_epochs=1)
    model = model_for_corpus(cfg.encoder, corpus, seed=0)
    return model, corpus


def test_run_retrieval_contract():
    model, corpus = _micro_setup()
    res = run_retrieval(model, corpus, split="test", direction="t2i")
    assert set(res.metrics) == {"R@1", "R@5", "R@10", "mAP", "AP@8"}
    assert res.rankings.shape == (8, 8)
    for row in res.rankings:
        np.testing.assert_array_equal(np.sort(row), np.arange(8))
    assert 0.0 <= res.metrics["mAP"] <= 1.0
    for key in ("R@1", "R@5", "R@10", "AP@8"):
        assert 0.0 <= res.metrics[key] <= 100.0
    again = run_retrieval(model, corpus, split="test", direction="t2i")
    assert res.metrics == again.metrics


def test_run_retrieval_directions_and_refine():
    model, corpus = _micro_setup()
    t2i = run_retrieval(model, corpus, direction="t2i")
    i2t = run_retrieval(model, corpus, direction="i2t")
    assert t2i.rankings.shape == i2t.rankings.shape
    plain = run_retrieval(model, corpus, direction="t2i", use_refine=False, w=9.0)
    base = run_retrieval(model, corpus, direction="t2i")
    assert plain.metrics == base.metrics     # w is inert unless refining
    refined = run_retrieval(model, corpus, direction="t2i", use_refine=True, w=0.5)
    assert set(refined.metrics) == set(base.metrics)
    with pytest.raises(ValueError):
        run_retrieval(model, corpus, direction="sideways")
    with pytest.raises(ValueError):
        run_retrieval(model, corpus, split="validation")


def test_encode_split_contract():
    model, corpus = _micro_setup()
    text, image, labels = encode_split(model, corpus, "train")
    assert text.shape == image.shape == (12, 16)
    np.testing.assert_array_equal(labels, np.repeat(np.arange(6), 2))
    with pytest.raises(ValueError, match="'dev'"):
        encode_split(model, corpus, "dev")


def test_encode_split_chunks_match_one_batch():
    cc = CorpusConfig(n_train_identities=4, n_test_identities=35,
                      pairs_per_identity=2, seed=5)
    corpus = generate_corpus(cc)
    model = model_for_corpus(EncoderConfig(d=16),
                             corpus, seed=1)
    pairs = corpus.test_pairs
    assert len(pairs) > ENCODE_CHUNK             # at least two chunks
    _, image, labels = encode_split(model, corpus, "test")
    whole_image = model.image_encoder.encode_batch(pairs.image).data
    assert np.array_equal(image, whole_image)
    np.testing.assert_array_equal(labels, pairs.identity)


def test_encode_split_text_rows_are_each_caption_alone(monkeypatch):
    # captions go through the encoder unpadded, so every row equals the
    # caption encoded on its own, whatever the chunk size
    cfg = trend_protocol_config()
    corpus = generate_corpus(cfg.corpus)
    model = model_for_corpus(cfg.encoder, corpus, seed=cfg.seed)
    pairs = corpus.test_pairs
    text, _, _ = encode_split(model, corpus, "test")
    for r, seq in enumerate(pairs.token_seqs(range(len(pairs)))):
        assert np.array_equal(text[r], model.text_encoder.encode_batch([seq])[0].data[0]), r
    monkeypatch.setattr(evaluation, "ENCODE_CHUNK", 7)
    assert np.array_equal(encode_split(model, corpus, "test")[0], text)


def test_encode_split_is_bitwise_on_any_thread_count(monkeypatch):
    cfg = trend_protocol_config()
    corpus = generate_corpus(cfg.corpus)
    model = model_for_corpus(cfg.encoder, corpus, seed=cfg.seed)
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    expect = encode_split(model, corpus, "test")
    for cpus in (1, 3):
        monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
        got = encode_split(model, corpus, "test")
        for a, b in zip(got, expect):
            assert np.array_equal(a, b), cpus


def test_encode_split_unit_failure_raises_and_ends_the_pool(monkeypatch):
    # two image chunks fail; the earlier one's error comes out, as raised
    model, corpus = _micro_setup()
    monkeypatch.setattr(evaluation, "ENCODE_CHUNK", 2)
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 3)
    image = corpus.test_pairs.image
    encode = model.image_encoder.encode_batch

    def failing(feats):
        for lo in (2, 6):
            if np.array_equal(feats, image[lo:lo + 2]):
                raise FloatingPointError(f"image rows {lo}:{lo + 2} broke")
        return encode(feats)

    monkeypatch.setattr(model.image_encoder, "encode_batch", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="^image rows 2:4 broke$"):
        encode_split(model, corpus, "test")
    assert threading.active_count() == before


def test_score_split_matches_per_metric_functions():
    model, corpus = _micro_setup()
    text, image, labels = encode_split(model, corpus, "test")
    bank = model.bank.matrix()
    relevance = labels[:, None] == labels[None, :]
    for direction in ("t2i", "i2t"):
        queries, gallery = (text, image) if direction == "t2i" else (image, text)
        for refined in (False, True):
            scores = (refinement.refined_scores(queries, gallery, bank, 0.5) if refined
                      else refinement.cosine_scores(queries, gallery))
            res = score_split(text, image, labels, bank, direction, refined, 0.5)
            np.testing.assert_array_equal(res.rankings, ranking(scores))
            assert res.metrics == {
                "R@1": rank_at_k(scores, relevance, 1),
                "R@5": rank_at_k(scores, relevance, 5),
                "R@10": rank_at_k(scores, relevance, 10),
                "mAP": mean_average_precision(scores, relevance),
                "AP@8": ap_at_n(scores, labels, labels, 8),
            }
            again = run_retrieval(model, corpus, "test", direction, refined, 0.5)
            assert again.metrics == res.metrics
    with pytest.raises(ValueError, match="n=9"):
        score_split(text, image, labels, bank, ap_n=9)
