"""Retrieval metrics and the end-to-end scoring pipeline.

Rankings sort scores descending with ties broken by lower gallery index,
which keeps every number bit-reproducible.  `ranking` value-sorts
integer words that pack a score's order key with its gallery index, and
returns exactly what a stable sort would.  Ties are not rare: duplicate
captions encode to identical text features, so every i2t row holds tied
gallery scores.  R@K and AP@N are percentages; mAP lives in [0, 1].

Two stages run on threads, one per usable CPU (inline when there is one
CPU or one unit of work): `encode_split`'s encoder chunks and `ranking`'s
blocks.  A process that shares its CPUs with others, as each ablation
worker does, divides them first (share_cpus).  Each unit writes only its
own rows and numpy releases the GIL in their heavy calls, so results are
bitwise those of one thread.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import refinement
from .data import Corpus

DEFAULT_AP_N = 50
# pairs per forward pass when encoding a split or masked captions
ENCODE_CHUNK = 64
# query rows per sort in ranking: 32 rows of int64 words at a 4,000-item
# gallery are 1 MB, which stays in cache through the block's passes
RANK_BLOCK = 32
# processes that run on this one's CPUs, itself included (share_cpus)
_sharers = 1


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_cpus(processes: int) -> None:
    """Size this process's thread pools for `processes` processes on the
    same CPUs: each gets max(1, usable CPUs // processes) threads.  The
    ablation's pool runs it in every worker it starts."""
    global _sharers
    _sharers = processes


def _on_threads(fn, units) -> list:
    """[fn(u) for u in units] on min(len(units), this process's share of
    the usable CPUs) threads, or inline when that is one.  Results are
    read in unit order, so the first failing unit raises, and every pool
    thread has ended on return."""
    threads = min(len(units), max(1, usable_cpus() // _sharers))
    if threads <= 1:
        return [fn(u) for u in units]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, units))


def _rank_block(scores: np.ndarray, order: np.ndarray, lo: int) -> None:
    """Rank rows lo:lo + RANK_BLOCK of scores into the same rows of order.

    A score's int64 bits hold a sign and a magnitude m; its key is -m for
    a positive score and m for a negative one, so ascending keys are
    descending scores and +-0.0 both key 0.  m loses its low ib bits,
    enough to hold any gallery index, and the index goes there: one value
    sort per row orders the words by (truncated key, index), and their
    low bits are the ranking.  Truncation is monotone, so only different
    scores that share a truncated key can come out of order; rows holding
    such neighbours are re-ranked by the stable argsort.  Exact ties are
    already in index order.  Only numpy calls, which release the GIL, so
    blocks can run on threads side by side.
    """
    block = scores[lo:lo + RANK_BLOCK]
    ng = block.shape[1]
    ib = max(1, (ng - 1).bit_length())
    low = (1 << ib) - 1
    bits = block.view(np.int64)
    sign = bits >> 63
    key = bits & np.int64(0x7FFF_FFFF_FFFF_FFFF & ~low)
    key ^= sign
    np.subtract(sign, key, out=key)
    key |= np.arange(ng)
    key.sort(axis=1)
    rows = order[lo:lo + RANK_BLOCK]
    np.bitwise_and(key, low, out=rows)
    # m is truncated, not the signed key, so +inf and NaN still key below
    # every finite score and -inf and -NaN above: the row ends show them all
    ends = np.take_along_axis(block, rows[:, [0, -1]], axis=1)
    finite = np.isfinite(ends).all(axis=1)
    if not finite.all():
        raise ValueError(f"ranking: query row {lo + int(np.argmin(finite))} "
                         f"holds a non-finite score")
    key >>= ib
    # neighbours sharing a truncated key; compare their scores through
    # flat positions in the block
    pos = np.flatnonzero(key[:, 1:] == key[:, :-1])
    if pos.size:
        row = pos // (ng - 1)
        pos += row
        left, right = np.take(rows, pos), np.take(rows, pos + 1)
        row *= ng  # the flat position of the row's first score
        left += row
        right += row
        redo = np.unique(row[np.take(block, left) != np.take(block, right)]) // ng
        if redo.size:
            rows[redo] = np.argsort(-block[redo], axis=1, kind="stable")


def ranking(scores: np.ndarray) -> np.ndarray:
    """Per-query gallery permutation, best first; equal scores keep index
    order, exactly as np.argsort(-scores, axis=1, kind="stable") orders
    them.

    Blocks of RANK_BLOCK rows are ranked by _rank_block through
    _on_threads.  The scores are read, never written.  Non-finite scores
    are refused, naming the first bad row, since they have no place in a
    ranking.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        raise ValueError(f"ranking: need a non-empty score matrix, got shape {scores.shape}")
    order = np.empty(scores.shape, dtype=np.intp)
    _on_threads(lambda lo: _rank_block(scores, order, lo),
                range(0, scores.shape[0], RANK_BLOCK))
    return order


def _check_relevance(order: np.ndarray, relevance: np.ndarray) -> np.ndarray:
    relevance = np.asarray(relevance, dtype=bool)
    if relevance.shape != order.shape:
        raise ValueError(f"metrics: relevance shape {relevance.shape} != scores {order.shape}")
    missing = np.flatnonzero(~relevance.any(axis=1))
    if missing.size:
        raise ValueError(f"metrics: query {int(missing[0])} has no relevant gallery item")
    return relevance


# The metrics below read a ranking(scores) order, so one sort serves them
# all; sums run per query and then across queries, as the oracles do.

def _recall_at_k(order: np.ndarray, relevance: np.ndarray, k: int) -> float:
    if k < 1:
        raise ValueError(f"rank_at_k: k must be >= 1, got {k}")
    relevance = _check_relevance(order, relevance)
    hits = np.take_along_axis(relevance, order[:, :k], axis=1).any(axis=1)
    return float(hits.sum()) / hits.size * 100.0


def _mean_ap(order: np.ndarray, relevance: np.ndarray) -> float:
    relevance = _check_relevance(order, relevance)
    aps = []
    for q in range(order.shape[0]):
        rel_sorted = relevance[q, order[q]]
        hit_ranks = np.flatnonzero(rel_sorted)
        precisions = np.arange(1, hit_ranks.size + 1, dtype=np.float64) / (hit_ranks + 1.0)
        aps.append(float(np.sum(precisions)) / hit_ranks.size)
    return float(np.sum(np.asarray(aps))) / len(aps)


def _ap_n(order: np.ndarray, query_classes, gallery_classes, n: int) -> float:
    query_classes = np.asarray(query_classes)
    gallery_classes = np.asarray(gallery_classes)
    if query_classes.shape != (order.shape[0],) or gallery_classes.shape != (order.shape[1],):
        raise ValueError(f"ap_at_n: shapes {order.shape} / {query_classes.shape} / "
                         f"{gallery_classes.shape} do not line up")
    if n < 1 or n > order.shape[1]:
        raise ValueError(f"ap_at_n: n={n} invalid for a gallery of {order.shape[1]}")
    top = gallery_classes[order[:, :n]]
    frac = (top == query_classes[:, None]).sum(axis=1).astype(np.float64) / n
    class_means = []
    for c in np.unique(query_classes):
        members = frac[query_classes == c]
        class_means.append(float(np.sum(members)) / members.size)
    return float(np.sum(np.asarray(class_means))) / len(class_means) * 100.0


def rank_at_k(scores: np.ndarray, relevance: np.ndarray, k: int) -> float:
    """Percent of queries with a relevant item somewhere in the top k."""
    return _recall_at_k(ranking(scores), relevance, k)


def mean_average_precision(scores: np.ndarray, relevance: np.ndarray) -> float:
    """Mean over queries of average precision over all relevant items."""
    return _mean_ap(ranking(scores), relevance)


def ap_at_n(scores: np.ndarray, query_classes, gallery_classes, n: int) -> float:
    """Fraction of top-n sharing the query's class, averaged per class and
    then across classes, as a percentage."""
    return _ap_n(ranking(scores), query_classes, gallery_classes, n)


@dataclass
class RetrievalResult:
    rankings: np.ndarray   # (nq, ng) gallery permutations
    metrics: dict[str, float]


def encode_split(model, corpus: Corpus, split: str):
    """-> (text features, image features, labels) as plain arrays.

    Captions are encoded in groups of equal token count, ENCODE_CHUNK at
    a time, so no caption is padded: a caption's features depend on the
    caption alone, not on its neighbours, the chunk size or the row
    order.  Images go ENCODE_CHUNK rows at a time.  The chunks run
    through _on_threads, each writing its own rows of the two feature
    arrays, so the features are bitwise the same on any thread count.
    Only each chunk's feature values are kept, so each thread holds at
    most one chunk's graph.
    """
    pairs = corpus.split_pairs(split)
    lengths = np.diff(pairs.tokens_offsets)
    text = np.empty((len(pairs), model.text_encoder.cfg.d))
    image = np.empty_like(text)

    def encode_text(rows):
        text[rows] = model.text_encoder.encode_batch(pairs.token_seqs(rows))[0].data

    def encode_image(rows):
        image[rows] = model.image_encoder.encode_batch(pairs.image[rows]).data

    # longest captions first, images last, so the costliest chunks start first
    units = [partial(encode_text, group[lo:lo + ENCODE_CHUNK])
             for group in (np.flatnonzero(lengths == n) for n in np.unique(lengths)[::-1])
             for lo in range(0, group.size, ENCODE_CHUNK)]
    units += [partial(encode_image, slice(lo, lo + ENCODE_CHUNK))
              for lo in range(0, len(pairs), ENCODE_CHUNK)]
    _on_threads(lambda unit: unit(), units)
    return text, image, pairs.identity


def score_split(text: np.ndarray, image: np.ndarray, labels: np.ndarray,
                bank: np.ndarray, direction: str = "t2i", use_refine: bool = False,
                w: float = 0.5, ap_n: int | None = None) -> RetrievalResult:
    """Score encoded features in one direction and aggregate every metric
    from a single ranking of the score matrix.

    t2i ranks images by text queries; i2t transposes.  With use_refine,
    scores become base + w * reference-space cosine through the bank.
    """
    if direction not in ("t2i", "i2t"):
        raise ValueError(f"score_split: direction {direction!r}")
    queries, gallery = (text, image) if direction == "t2i" else (image, text)
    if use_refine:
        scores = refinement.refined_scores(queries, gallery, bank, w)
    else:
        scores = refinement.cosine_scores(queries, gallery)
    order = ranking(scores)
    relevance = labels[:, None] == labels[None, :]
    n = min(DEFAULT_AP_N, order.shape[1]) if ap_n is None else ap_n
    metrics = {
        "R@1": _recall_at_k(order, relevance, 1),
        "R@5": _recall_at_k(order, relevance, 5),
        "R@10": _recall_at_k(order, relevance, 10),
        "mAP": _mean_ap(order, relevance),
        f"AP@{n}": _ap_n(order, labels, labels, n),
    }
    return RetrievalResult(rankings=order, metrics=metrics)


def run_retrieval(model, corpus: Corpus, split: str = "test",
                  direction: str = "t2i", use_refine: bool = False,
                  w: float = 0.5, ap_n: int | None = None) -> RetrievalResult:
    """Encode a whole split, then score it as score_split does."""
    text, image, labels = encode_split(model, corpus, split)
    return score_split(text, image, labels, model.bank.matrix(), direction,
                       use_refine, w, ap_n)
