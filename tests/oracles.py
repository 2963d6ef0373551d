"""Scalar reference implementations that the tests check coldrec's batched code against.

None of these runs in a pipeline: ranking scores triplets in batch
(`models.score_queries`), the trainers log their objective from the
half-sweeps and `_forbes_objective`, and forbes updates its stacked state
without forming per-instance gradients.
"""

import numpy as np
from scipy import sparse

from coldrec.models import FactorModel, Instances, _full_loss
from coldrec.numerics import CSRMatrix


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
