"""Retrieval metrics and the end-to-end scoring pipeline.

Rankings sort scores descending with ties broken by lower gallery index,
which keeps every number bit-reproducible.  `ranking` value-sorts
integer words that pack a score's order key with its gallery index, and
returns exactly what a stable sort would.  Ties are not rare: duplicate
captions encode to identical text features, so every i2t row holds tied
gallery scores.  R@K and AP@N are percentages; mAP lives in [0, 1].

`score_split` makes one pass over blocks of query rows: each block is
ranked, and its hit ranks are read while it is in cache, so no n x n
relevance matrix is built.  Every metric is a count or a sum over the
per-query first hit ranks, average precisions and top-n hit counts, and
the public metric functions derive them through the same helper.

Two stages run on threads, one per usable CPU (inline when there is one
CPU or one unit of work): `encode_split`'s encoder chunks and the blocks
of `ranking` and `score_split`.  A process that shares its CPUs with
others, as each ablation worker does, divides them first (share_cpus).
Each unit writes only its own rows and numpy releases the GIL in their
heavy calls, so results are bitwise those of one thread.
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
# query rows per unit of ranking and score_split: 32 rows of int64 words
# at a 4,000-item gallery are 1 MB, which stays in cache through the
# block's sort and, in score_split, the reading of its hit ranks
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


def ranking(scores: np.ndarray, then=None) -> np.ndarray:
    """Per-query gallery permutation, best first; equal scores keep index
    order, exactly as np.argsort(-scores, axis=1, kind="stable") orders
    them.

    Blocks of RANK_BLOCK rows are ranked by _rank_block through
    _on_threads.  The scores are read, never written.  Non-finite scores
    are refused, naming the first bad row, since they have no place in a
    ranking.  With then, each unit calls then(lo, the block's rows of the
    order) on its own thread once the block is ranked, while those rows
    are still in cache.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        raise ValueError(f"ranking: need a non-empty score matrix, got shape {scores.shape}")
    order = np.empty(scores.shape, dtype=np.intp)

    def unit(lo):
        _rank_block(scores, order, lo)
        if then is not None:
            then(lo, order[lo:lo + RANK_BLOCK])

    _on_threads(unit, range(0, scores.shape[0], RANK_BLOCK))
    return order


def _ranked_hits(scores: np.ndarray, relevance: np.ndarray) -> np.ndarray:
    order = ranking(scores)
    relevance = np.asarray(relevance, dtype=bool)
    if relevance.shape != order.shape:
        raise ValueError(f"metrics: relevance shape {relevance.shape} != scores {order.shape}")
    missing = np.flatnonzero(~relevance.any(axis=1))
    if missing.size:
        raise ValueError(f"metrics: query {int(missing[0])} has no relevant gallery item")
    return np.take_along_axis(relevance, order, axis=1)


def _run_sums(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """np.sum of each run of values, run i holding the next count[i].  Runs
    of equal length are summed as rows of one matrix, which numpy reduces
    as it reduces each run alone: bitwise a 1-D np.sum per run."""
    start = np.cumsum(count) - count
    sums = np.zeros(count.size)
    for c in np.unique(count[count > 0]):
        runs = np.flatnonzero(count == c)
        sums[runs] = values[start[runs, None] + np.arange(c)].sum(axis=1)
    return sums


def _hit_ranks(hits: np.ndarray, n: int):
    """-> (first_hit, ap, top) per row of hits, whose row q marks query
    q's relevant items in ranked order: the first hit's rank (the gallery
    size if none), the average precision (0 if none) and the hits in
    the top n.  Sums run per query in rank order, as the oracles do."""
    rows, ng = hits.shape
    row, rank = np.divmod(np.flatnonzero(hits), ng)
    count = np.bincount(row, minlength=rows)
    start = np.cumsum(count) - count
    first_hit = np.full(rows, ng, dtype=np.int64)
    first_hit[count > 0] = rank[start[count > 0]]
    found = np.arange(1, row.size + 1) - np.repeat(start, count)
    ap = _run_sums(found / (rank + 1.0), count) / np.maximum(count, 1)
    return first_hit, ap, np.bincount(row[rank < n], minlength=rows)


def _recall(first_hit: np.ndarray, k: int) -> float:
    if k < 1:
        raise ValueError(f"rank_at_k: k must be >= 1, got {k}")
    return float((first_hit < k).sum()) / first_hit.size * 100.0


def _ap_n(top: np.ndarray, query_classes: np.ndarray, n: int, ng: int) -> float:
    if n < 1 or n > ng:
        raise ValueError(f"ap_at_n: n={n} invalid for a gallery of {ng}")
    classes, cls = np.unique(query_classes, return_inverse=True)
    members = np.bincount(cls)
    means = _run_sums(top[np.argsort(cls, kind="stable")] / n, members) / members
    return float(np.sum(means)) / classes.size * 100.0


def rank_at_k(scores: np.ndarray, relevance: np.ndarray, k: int) -> float:
    """Percent of queries with a relevant item somewhere in the top k."""
    return _recall(_hit_ranks(_ranked_hits(scores, relevance), 0)[0], k)


def mean_average_precision(scores: np.ndarray, relevance: np.ndarray) -> float:
    """Mean over queries of average precision over all relevant items."""
    ap = _hit_ranks(_ranked_hits(scores, relevance), 0)[1]
    return float(np.sum(ap)) / ap.size


def ap_at_n(scores: np.ndarray, query_classes, gallery_classes, n: int) -> float:
    """Fraction of top-n sharing the query's class, averaged per class and
    then across classes, as a percentage."""
    order = ranking(scores)
    query_classes = np.asarray(query_classes)
    gallery_classes = np.asarray(gallery_classes)
    if query_classes.shape != (order.shape[0],) or gallery_classes.shape != (order.shape[1],):
        raise ValueError(f"ap_at_n: shapes {order.shape} / {query_classes.shape} / "
                         f"{gallery_classes.shape} do not line up")
    hits = np.take_along_axis(query_classes[:, None] == gallery_classes, order, axis=1)
    return _ap_n(_hit_ranks(hits, n)[2], query_classes, n, order.shape[1])


@dataclass
class RetrievalResult:
    rankings: np.ndarray   # (nq, ng) gallery permutations
    metrics: dict[str, float]
    per_query: dict[str, np.ndarray]   # "first_hit" (int64) and "ap", in query order


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
    from one pass over RANK_BLOCK-row blocks of the score matrix.

    t2i ranks images by text queries; i2t transposes.  With use_refine,
    scores become base + w * reference-space cosine through the bank.
    ranking ranks each block and, while the block is still in cache,
    read_hits reads its labels in rank order, as dense int32 ids.
    """
    if direction not in ("t2i", "i2t"):
        raise ValueError(f"score_split: direction {direction!r}")
    queries, gallery = (text, image) if direction == "t2i" else (image, text)
    if use_refine:
        scores = refinement.refined_scores(queries, gallery, bank, w)
    else:
        scores = refinement.cosine_scores(queries, gallery)
    labels = np.asarray(labels)
    nq, ng = scores.shape
    if labels.shape != (nq,) or ng != nq:
        raise ValueError(f"score_split: labels of shape {labels.shape} do not label "
                         f"a {nq} x {ng} score matrix")
    n = min(DEFAULT_AP_N, ng) if ap_n is None else ap_n
    cls = np.unique(labels, return_inverse=True)[1].astype(np.int32)
    first_hit, ap, top = np.empty(nq, dtype=np.int64), np.empty(nq), np.empty(nq, dtype=np.int64)

    def read_hits(lo, ranked):
        rows = slice(lo, lo + RANK_BLOCK)
        first_hit[rows], ap[rows], top[rows] = _hit_ranks(np.take(cls, ranked) == cls[rows, None], n)

    order = ranking(scores, read_hits)
    metrics = {f"R@{k}": _recall(first_hit, k) for k in (1, 5, 10)}
    metrics["mAP"] = float(np.sum(ap)) / nq
    metrics[f"AP@{n}"] = _ap_n(top, labels, n, ng)
    return RetrievalResult(order, metrics, {"first_hit": first_hit, "ap": ap})


def run_retrieval(model, corpus: Corpus, split: str = "test",
                  direction: str = "t2i", use_refine: bool = False,
                  w: float = 0.5, ap_n: int | None = None) -> RetrievalResult:
    """Encode a whole split, then score it as score_split does."""
    text, image, labels = encode_split(model, corpus, split)
    return score_split(text, image, labels, model.bank.matrix(), direction,
                       use_refine, w, ap_n)
