"""Brute-force retrieval oracles, with the semantics of acceptance criterion 4.

Each oracle sorts a score row with plain Python (score descending, ties to
the lower gallery index) and sums in the same order as
refalign.evaluation, so a correct library result equals the oracle
exactly, not approximately.
"""
from __future__ import annotations

import numpy as np


def oracle_order(row) -> list[int]:
    values = row.tolist()
    return sorted(range(len(values)), key=lambda j: (-values[j], j))


def oracle_rank_at_k(orders, relevant, k: int) -> float:
    hits = sum(1 for q, order in enumerate(orders) if any(relevant(q, j) for j in order[:k]))
    return float(hits) / len(orders) * 100.0


def oracle_map(orders, relevant) -> float:
    aps = []
    for q, order in enumerate(orders):
        found, precisions = 0, []
        for rank, j in enumerate(order, start=1):
            if relevant(q, j):
                found += 1
                precisions.append(float(found) / rank)
        aps.append(float(np.sum(np.asarray(precisions))) / found)
    return float(np.sum(np.asarray(aps))) / len(aps)


def oracle_ap_at_n(orders, query_classes, gallery_classes, n: int) -> float:
    per_class: dict[int, list[float]] = {}
    for q, order in enumerate(orders):
        same = sum(1 for j in order[:n] if gallery_classes[j] == query_classes[q])
        per_class.setdefault(query_classes[q], []).append(same / n)
    means = [float(np.sum(np.asarray(v))) / len(v) for _, v in sorted(per_class.items())]
    return float(np.sum(np.asarray(means))) / len(means) * 100.0


def check_retrieval(evaluation, labels: np.ndarray, metrics: dict, top: np.ndarray,
                    sample: np.ndarray, scores: np.ndarray, rows: np.ndarray) -> list[str]:
    """Check one run_retrieval call against the oracles; returns mismatches.

    labels label the whole split (queries and gallery alike), metrics and
    top are the call's metrics and the leading columns of its rankings.
    scores and rows are the sampled query rows of the full score matrix and
    of the call's rankings.  On the sample, the rankings must equal a
    brute-force sort and refalign's metric functions must equal the
    oracles; over the whole split, the reported R@k and AP@N must equal
    the oracles applied to the call's own top ranks.
    """
    classes = labels.tolist()
    orders = [oracle_order(row) for row in scores]
    differ = [int(q) for q, got, order in zip(sample, rows, orders) if not np.array_equal(got, order)]
    bad = [f"rankings of {len(differ)} sampled queries differ, first {differ[0]}"] if differ else []
    sub = [classes[q] for q in sample.tolist()]
    relevance = labels[sample][:, None] == labels[None, :]
    in_sample = lambda q, j: sub[q] == classes[j]
    ap_key = next(k for k in metrics if k.startswith("AP@"))
    n = int(ap_key[3:])
    pairs = [(f"sample R@{k}", evaluation.rank_at_k(scores, relevance, k),
              oracle_rank_at_k(orders, in_sample, k)) for k in (1, 5, 10)]
    pairs.append(("sample mAP", evaluation.mean_average_precision(scores, relevance),
                  oracle_map(orders, in_sample)))
    pairs.append((f"sample {ap_key}", evaluation.ap_at_n(scores, labels[sample], labels, n),
                  oracle_ap_at_n(orders, sub, classes, n)))
    prefixes = top.tolist()
    whole = lambda q, j: classes[q] == classes[j]
    pairs += [(f"R@{k}", metrics[f"R@{k}"], oracle_rank_at_k(prefixes, whole, k)) for k in (1, 5, 10)]
    pairs.append((ap_key, metrics[ap_key], oracle_ap_at_n(prefixes, classes, classes, n)))
    bad += [f"{name}: {got!r} != oracle {want!r}" for name, got, want in pairs if got != want]
    return bad
