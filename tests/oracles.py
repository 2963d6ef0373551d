"""Scalar reference implementations that the tests check coldrec's batched code against.

None of these runs in a pipeline: ranking scores triplets in batch
(`models.score_queries`, checked against `scalar_predict`), the trainers
log their objective from the half-sweeps and `_forbes_objective`, forbes
updates its stacked state without forming per-instance gradients (checked
against `eager_forbes`), negatives are drawn in batches (checked
against `scalar_sample_negatives`), and the metrics reduce integer rank and
top-position arrays (checked against the per-query loops `map_at_k`,
`recall_at_k`, `novelty_at_k` and `diversity_at_k`, which take ranks with
None for a missing one and top lists of article ids).
"""

import math
from collections import namedtuple

import numpy as np
from scipy import sparse

from coldrec.models import FactorModel, Instances, _full_loss
from coldrec.numerics import CSRMatrix, cosine_distance


def as_csr(matrix) -> CSRMatrix:
    """A CSRMatrix over the data, indices and indptr of scipy.sparse.csr_matrix(matrix)."""
    ref = sparse.csr_matrix(matrix)
    return CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape)


def score(user_vec, last_vec, next_vec) -> float:
    """Triplet affinity: the symmetric sum of the three pairwise inner products."""
    u = np.asarray(user_vec, dtype=np.float64)
    x = np.asarray(last_vec, dtype=np.float64)
    y = np.asarray(next_vec, dtype=np.float64)
    if not (u.shape == x.shape == y.shape) or u.ndim != 1:
        raise ValueError(
            "score expects three 1-d vectors of equal length, got shapes %s %s %s"
            % (u.shape, x.shape, y.shape)
        )
    return float(np.dot(u, x) + np.dot(u, y) + np.dot(x, y))


def objective(model: FactorModel, instances: Instances) -> float:
    """Confidence-weighted squared loss over instances plus factor regularizers."""
    return _full_loss(model.user_factors, model.last_factors, model.next_factors, instances, model.hyper)


def forbes_instance_loss(user_vec, last_mapping, next_mapping, a_i, a_j, target, weight) -> float:
    """weight * (target - score)^2 for one instance with mapped article vectors."""
    x = np.asarray(a_i, dtype=np.float64) @ last_mapping
    y = np.asarray(a_j, dtype=np.float64) @ next_mapping
    pred = float(np.dot(user_vec, x) + np.dot(user_vec, y) + np.dot(x, y))
    return weight * (target - pred) ** 2


def forbes_instance_gradients(user_vec, last_mapping, next_mapping, a_i, a_j, target, weight):
    """Analytic gradients of forbes_instance_loss wrt (user_vec, last_mapping, next_mapping)."""
    a_i = np.asarray(a_i, dtype=np.float64)
    a_j = np.asarray(a_j, dtype=np.float64)
    x = a_i @ last_mapping
    y = a_j @ next_mapping
    pred = float(np.dot(user_vec, x) + np.dot(user_vec, y) + np.dot(x, y))
    err = weight * (target - pred)
    grad_user = -2.0 * err * (x + y)
    grad_last = -2.0 * err * np.outer(a_i, user_vec + y)
    grad_next = -2.0 * err * np.outer(a_j, user_vec + x)
    return grad_user, grad_last, grad_next


Row = namedtuple("Row", "u i j target weight")


def instance_rows(instances):
    """The record's instances one by one, as Row tuples of Python numbers."""
    columns = (instances.u, instances.i, instances.j, instances.target, instances.weight)
    return [Row(*values) for values in zip(*(column.tolist() for column in columns))]


def scalar_sample_negatives(triplet_set, negatives_per_positive, seed):
    """sample_negatives as of 87fdada: one scalar rng.integers draw per attempt; the sampling oracle.

    Returns the instances as a list of Row tuples.
    """
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    n_articles = len(triplet_set.articles)
    if n_articles < 3:
        raise ValueError(
            "article universe of size %d is too small to sample negatives" % n_articles
        )
    positives = set()
    encoded = []
    for t in triplet_set:
        u = triplet_set.users[t.user]
        i = triplet_set.articles[t.last_article]
        j = triplet_set.articles[t.next_article]
        positives.add((u, i, j))
        encoded.append((u, i, j, t.confidence))

    rng = np.random.default_rng(seed)
    instances = []
    for u, i, j, confidence in encoded:
        instances.append(Row(u=u, i=i, j=j, target=1.0, weight=confidence))
        for _ in range(negatives_per_positive):
            for _attempt in range(100):
                j_neg = int(rng.integers(n_articles))
                if j_neg != j and j_neg != i and (u, i, j_neg) not in positives:
                    instances.append(Row(u=u, i=i, j=j_neg, target=0.0, weight=1.0))
                    break
    return instances


def eager_forbes(instances, content, hyper):
    """Reference forbes trainer: the per-instance loop with eager weight decay.

    Same init draws, per-epoch permutation and learning-rate decay as
    forbes_train; each update decays both full mappings and adds the
    outer-product terms row by row. U has one row per id in the record's
    `users`. Returns (U, Psi_X, Psi_Y).
    """
    n_users = len(instances.users)
    instances = instance_rows(instances)
    dim = hyper.latent_dim
    m = content.shape[1]
    rng = np.random.default_rng(hyper.seed)
    scale = 0.1 / np.sqrt(dim)
    U = rng.normal(0.0, scale, size=(n_users, dim))
    last_mapping = rng.normal(0.0, scale, size=(m, dim))
    next_mapping = rng.normal(0.0, scale, size=(m, dim))
    if isinstance(content, CSRMatrix):
        bounds = content.indptr
        rows = [
            (content.indices[bounds[r] : bounds[r + 1]], content.data[bounds[r] : bounds[r + 1]])
            for r in range(content.shape[0])
        ]
    else:
        rows = [(None, np.asarray(r, dtype=float)) for r in content]

    def mapped(row, mapping):
        idx, vals = row
        return vals @ (mapping if idx is None else mapping[idx])

    def add_outer(mapping, row, coef, vec):
        idx, vals = row
        if idx is None:
            mapping += coef * np.outer(vals, vec)
        else:
            mapping[idx] += coef * np.outer(vals, vec)

    lr = hyper.sgd_lr
    for _ in range(hyper.sgd_epochs):
        for pos in rng.permutation(len(instances)):
            inst = instances[pos]
            row_i, row_j = rows[inst.i], rows[inst.j]
            x = mapped(row_i, last_mapping)
            y = mapped(row_j, next_mapping)
            u_old = U[inst.u].copy()
            pred = float(np.dot(u_old, x) + np.dot(u_old, y) + np.dot(x, y))
            err = inst.weight * (inst.target - pred)
            U[inst.u] += lr * (err * (x + y) - hyper.reg_user * u_old)
            if hyper.reg_last > 0.0:
                last_mapping *= 1.0 - lr * hyper.reg_last
            add_outer(last_mapping, row_i, lr * err, u_old + y)
            if hyper.reg_next > 0.0:
                next_mapping *= 1.0 - lr * hyper.reg_next
            add_outer(next_mapping, row_j, lr * err, u_old + x)
        lr *= hyper.sgd_decay
    return U, last_mapping, next_mapping


def forbes_objective_oracle(model, instances, content):
    """Sum of forbes_instance_loss over instances plus the U and mapping regularizers."""
    instances = instance_rows(instances)
    rows = content.toarray() if isinstance(content, CSRMatrix) else np.asarray(content)
    hyper = model.hyper
    loss = sum(
        forbes_instance_loss(
            model.user_factors[inst.u],
            model.last_mapping,
            model.next_mapping,
            rows[inst.i],
            rows[inst.j],
            inst.target,
            inst.weight,
        )
        for inst in instances
    )
    loss += hyper.reg_user * np.sum(model.user_factors**2)
    loss += hyper.reg_last * np.sum(model.last_mapping**2)
    loss += hyper.reg_next * np.sum(model.next_mapping**2)
    return loss


def scalar_effective_vectors(model, article_id, features):
    """effective_vectors as of e396728: the one-article stored-vs-mapped rule."""
    idx = model.articles.get(article_id)
    if idx is None or model.kind == "oord":
        row = features.rows([article_id])
        x = np.asarray(row @ model.last_mapping).ravel()
        y = np.asarray(row @ model.next_mapping).ravel()
        return x, y
    return np.array(model.last_factors[idx]), np.array(model.next_factors[idx])


def scalar_predict(model, user, last_article, candidates, features):
    """predict as of e396728: per-candidate assembly and a Python sort; the ranking oracle."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidates must be non-empty")
    missing = [a for a in [last_article, *candidates] if a not in features.row_index]
    if missing:
        raise ValueError(
            "articles missing from the feature matrix: %s" % ", ".join(sorted(set(missing)))
        )
    dim = model.hyper.latent_dim
    user_idx = model.users.get(user)
    u = model.user_factors[user_idx] if user_idx is not None else np.zeros(dim)
    x_i, _ = scalar_effective_vectors(model, last_article, features)

    n = len(candidates)
    Y = np.empty((n, dim), dtype=np.float64)
    keys = []
    stored_pos, stored_rows = [], []
    mapped_pos, mapped_ids = [], []
    for pos, article in enumerate(candidates):
        idx = model.articles.get(article)
        keys.append((0, idx) if idx is not None else (1, article))
        if idx is not None and model.kind != "oord":
            stored_pos.append(pos)
            stored_rows.append(idx)
        else:
            mapped_pos.append(pos)
            mapped_ids.append(article)
    if stored_pos:
        Y[stored_pos] = model.next_factors[stored_rows]
    if mapped_pos:
        Y[mapped_pos] = np.asarray(features.rows(mapped_ids) @ model.next_mapping)

    scores = Y @ u + Y @ x_i + float(np.dot(u, x_i))
    order = sorted(range(n), key=lambda p: (-scores[p], keys[p]))
    return [(candidates[p], float(scores[p])) for p in order]


def map_at_k(ranks, k: int) -> float:
    """Mean over queries of 1/rank when rank <= k, else 0 (single relevant item).

    A rank of None means the relevant item was not in the candidate set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranks = list(ranks)
    if not ranks:
        return 0.0
    total = 0.0
    for rank in ranks:
        if rank is not None and rank <= k:
            total += 1.0 / rank
    return total / len(ranks)


def recall_at_k(ranks, k: int) -> float:
    """Fraction of queries whose relevant item landed within the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranks = list(ranks)
    if not ranks:
        return 0.0
    hits = sum(1 for rank in ranks if rank is not None and rank <= k)
    return hits / len(ranks)


def novelty_at_k(top_lists, popularity, total_clicks: int, k: int) -> float:
    """Mean self-information -log2(pop/total) over each query's top-k list.

    Articles never clicked (popularity 0) are clamped to one click so cold
    recommendations cannot contribute infinite novelty.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if total_clicks < 1:
        raise ValueError("total_clicks must be >= 1")
    per_query = []
    for items in top_lists:
        head = items[:k]
        if not head:
            per_query.append(0.0)
            continue
        total = 0.0
        for article in head:
            clicks = max(popularity.get(article, 0), 1)
            total += -math.log2(clicks / total_clicks)
        per_query.append(total / len(head))
    if not per_query:
        return 0.0
    return sum(per_query) / len(per_query)


def diversity_at_k(top_lists, tfidf_features, k: int) -> float:
    """Mean pairwise cosine distance over each query's top-k TF-IDF rows.

    Lists with fewer than two items contribute 0. `tfidf_features` holds its
    rows as a CSRMatrix, as every TF-IDF FeatureMatrix does.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    per_query = []
    for items in top_lists:
        head = items[:k]
        if len(head) < 2:
            per_query.append(0.0)
            continue
        rows = [tfidf_features.matrix.row(tfidf_features.row_index[article]) for article in head]
        total = 0.0
        pairs = 0
        for p in range(len(rows)):
            for q in range(p + 1, len(rows)):
                total += cosine_distance(rows[p], rows[q])
                pairs += 1
        per_query.append(total / pairs)
    if not per_query:
        return 0.0
    return sum(per_query) / len(per_query)


def scalar_ranks(ranks):
    """An integer rank array as the oracles read it: None where the rank is 0."""
    return [rank or None for rank in np.asarray(ranks).tolist()]


def top_lists(ordered, top):
    """A top-position array as the oracles read it: each row's article ids."""
    return [[ordered[p] for p in row] for row in np.asarray(top).tolist()]
