"""Evaluation metrics."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def assignment_optimum(weight) -> int:
    """Largest total weight of a one-to-one matching of an integer matrix.

    Matches every row to a distinct column (after transposing so that
    rows <= columns) by Kuhn's Hungarian method with potentials, one
    shortest augmenting path per row, on the cost -weight. Integer
    arithmetic throughout, so the optimum is exact.
    """
    w = np.asarray(weight, dtype=np.int64)
    if w.shape[0] > w.shape[1]:
        w = w.T
    n, m = w.shape
    # Row and column 0 are the root of each augmenting search.
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[1:, 1:] = -w
    unreached = np.iinfo(np.int64).max // 4
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(m + 1, dtype=np.int64)
    row_of = np.zeros(m + 1, dtype=np.intp)  # row matched to each column, 0 = none
    way = np.zeros(m + 1, dtype=np.intp)
    for i in range(1, n + 1):
        row_of[0] = i
        col = 0
        slack = np.full(m + 1, unreached, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[col]:
            used[col] = True
            row = row_of[col]
            reduced = cost[row] - u[row] - v
            tighter = ~used & (reduced < slack)
            slack[tighter] = reduced[tighter]
            way[tighter] = col
            nxt = int(np.argmin(np.where(used, unreached, slack)))
            delta = slack[nxt]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            col = nxt
        while col:
            prev = way[col]
            row_of[col] = row_of[prev]
            col = prev
    cols = np.flatnonzero(row_of[1:])
    return int(w[row_of[cols + 1] - 1, cols].sum())


def clustering_accuracy(pred, truth) -> float:
    """Best agreement fraction over all one-to-one label matchings.

    Builds the confusion matrix of the two labelings and solves the
    assignment problem, so the value is invariant under any relabeling
    of either argument and tolerates differing cluster counts.
    """
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.size == 0 or pred.shape != truth.shape:
        raise DimensionError(
            f"label vectors must be nonempty and equal-length, got {pred.shape} vs {truth.shape}"
        )
    pred_ids = {v: i for i, v in enumerate(np.unique(pred))}
    truth_ids = {v: i for i, v in enumerate(np.unique(truth))}
    confusion = np.zeros((len(pred_ids), len(truth_ids)), dtype=int)
    for p, t in zip(pred, truth):
        confusion[pred_ids[p], truth_ids[t]] += 1
    return float(assignment_optimum(confusion)) / len(pred)
