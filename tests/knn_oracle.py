"""Per-query kNN vote loop, the oracle for ``diagnostics.knn_classify``.

``knn_classify`` searches all queries with one matmul and a partition and
votes with one ``bincount`` per label set.  This loop sorts each query's
distances with a stable argsort and counts votes with ``np.unique``, so the
tests check the vectorised tie rules against the plain ones.
"""

import numpy as np


def knn_predict(train_feats, labels, query_feats, k):
    """Majority label of each query's k nearest training rows.

    Distance ties go to the smaller training index (stable sort), vote ties
    to the smaller label.
    """
    train_feats = np.asarray(train_feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    sq_t = np.sum(train_feats * train_feats, axis=1)
    preds = []
    for q in np.asarray(query_feats, dtype=np.float64):
        d2 = sq_t - 2.0 * (train_feats @ q) + q @ q
        nearest = np.argsort(d2, kind="stable")[:k]
        classes, counts = np.unique(labels[nearest], return_counts=True)
        preds.append(classes[counts == counts.max()].min())
    return np.array(preds, dtype=np.int64)
