"""Content-aware latent-factor trainers and ranking.

Three trainers share one `Instances` record of training instances from
`sample_negatives` (positives with confidence weights, negatives with weight 1):

- almm_train: per iteration, (a) closed-form ALS row updates for user / last /
  next factors, (b) ridge-regression content mappings, (c) refresh of the
  article factors with the mapped features.
- forbes_train: article factors are defined through the mappings for the whole
  run; user factors and mappings learned jointly by SGD on one stacked state
  S = [Psi_X; Psi_Y; U], one gather, two small matmuls and one write per
  instance.
- oord_train: stage 1 is almm's ALS loop without the per-iteration mappings
  and refresh, stage 2 fits the mappings once by ridge from the final
  factors; prediction always uses mapped features.

almm and oord run one ALS loop, `_als_train`, steered by the model kind
alone. A half-sweep (`_als_update`) updates every row of one factor matrix
with one stacked matmul per run length and returns the data loss it leaves.
A trainer takes (instances, content, hyper): the record carries the user
and article id lists its codes index, content row k holds the features of
`instances.articles[k]`, and the model's id maps come from the record. The
instances' grouping by user, last and next row belongs to the record too
(`Instances.groups`): computed once, shared by almm and oord on a split, and
released with the record. Each ALS trainer call allocates one
`_AlsWorkspace` and every half-sweep writes its size-n intermediates there,
so no half-sweep allocates memory that grows with the number of instances.
A half-sweep gathers with `np.take(..., mode="clip")`: with `out=`, numpy's
default `mode="raise"` gathers into a temporary first. The range check
therefore lives in `Instances`, which checks every code against its id list
once, when the record is built. The trainers draw their initial factors
through `_init_factors` and build their model through `_factor_model`.

Prediction scores a candidate next article as the symmetric sum of the three
pairwise inner products among the user vector, the last article's
last-position vector, and the candidate's next-position vector. Content-mapped
vectors stand in for any article that was not trained on (the cold path), and
unseen users score with a zero user vector. One scoring kernel,
`score_queries`, scores a block of queries against all candidates, put in tie
order once, as one matrix; it does not rank. It takes the queries as a triplet
side's user and article id lists plus its u/i code columns, so each user and
article is resolved to a vector once. `predict` is a one-query call into it
followed by one stable argsort; evaluation calls it once per (model, split),
and `metrics` ranks into integer arrays and excludes each query's own article.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .artifacts import file_name, fits, id_positions, load_matrix, read_manifest, save_matrix, write_json
from .errors import DivergenceError, EmptyInputError, FormatError, MissingArticlesError
from .numerics import CSRMatrix, cho_solve_stacked, ridge_cholesky, ridge_factor
# perfbench/tracing.py wraps models.ridge_solve by name; no run calls it
from .numerics import ridge_solve  # noqa: F401
from .transitions import TripletSet

MODEL_KINDS = ("almm", "forbes", "oord")
# the FactorModel fields save_model writes, each to the RUN_FILES entry of its name
_MATRICES = ("user_factors", "last_factors", "next_factors", "last_mapping", "next_mapping")


@dataclass
class Hyperparams:
    latent_dim: int = 32
    reg_user: float = 0.1
    reg_last: float = 0.1
    reg_next: float = 0.1
    reg_mapping: float = 1.0
    refresh_blend: float = 1.0  # 1.0 replaces article factors with mapped features
    negatives_per_positive: int = 4
    iterations: int = 15
    sgd_lr: float = 0.01
    sgd_decay: float = 0.9
    sgd_epochs: int = 30
    seed: int = 42

    def validate(self) -> None:
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        for name in ("reg_user", "reg_last", "reg_next", "reg_mapping"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError("%s must be finite and >= 0" % name)
        if not 0.0 <= self.refresh_blend <= 1.0:
            raise ValueError("refresh_blend must be in [0, 1]")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")
        for name in ("iterations", "sgd_epochs"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if not 0.0 <= self.sgd_lr < math.inf:
            raise ValueError("sgd_lr must be finite and >= 0")
        if not 0.0 < self.sgd_decay <= 1.0:
            raise ValueError("sgd_decay must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class Instances:
    """Training instances as five aligned 1-d arrays plus the id lists their codes index.

    Instance n is user users[u[n]], last article articles[i[n]] and candidate
    next article articles[j[n]]. The columns are read-only copies and the id
    lists tuples: one record is shared by every trainer of a split. Every
    code is checked against its id list here, once per record, and a code
    outside it is a ValueError naming the column, the code and the list size;
    an id list that repeats an id is a ValueError too.
    """

    u: np.ndarray  # int64 dense user index
    i: np.ndarray  # int64 dense index of the last-clicked article
    j: np.ndarray  # int64 dense index of the candidate next article
    target: np.ndarray  # float64: 1 for observed transitions, 0 for sampled negatives
    weight: np.ndarray  # float64: confidence for positives, 1 for negatives
    users: tuple  # user ids in user-code order: the rows of the user factors
    articles: tuple  # article ids in article-code order: the rows of the content and article factors

    def __post_init__(self):
        dtypes = {"u": np.int64, "i": np.int64, "j": np.int64, "target": np.float64, "weight": np.float64}
        columns = {name: np.array(getattr(self, name), dtype=dtype) for name, dtype in dtypes.items()}
        shapes = {name: column.shape for name, column in columns.items()}
        if any(len(shape) != 1 for shape in shapes.values()) or len(set(shapes.values())) != 1:
            raise ValueError("instance columns must be 1-d and of one length, got shapes %s" % shapes)
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for name in ("users", "articles"):
            ids = tuple(getattr(self, name))
            if len(set(ids)) != len(ids):
                raise ValueError("%s repeat an id: %d ids, %d distinct" % (name, len(ids), len(set(ids))))
            object.__setattr__(self, name, ids)
        for name, codes, ids in (("user", self.u, self.users), ("last article", self.i, self.articles),
                                 ("next article", self.j, self.articles)):
            if codes.size and not 0 <= codes.min() <= codes.max() < len(ids):
                low, high = int(codes.min()), int(codes.max())
                raise ValueError("%s code %d outside [0, %d)" % (name, low if low < 0 else high, len(ids)))

    def __len__(self) -> int:
        return self.u.shape[0]

    @cached_property
    def groups(self):
        """`_group_rows` of u, i and j, computed on first use and kept with the record.

        Every ALS trainer of the record reads these three groupings, which are
        read-only like the columns they group.
        """
        groupings = tuple(_group_rows(codes) for codes in (self.u, self.i, self.j))
        for grouping in groupings:
            for array in grouping[:3]:
                array.flags.writeable = False
        return groupings


@dataclass
class FactorModel:
    kind: str
    hyper: Hyperparams
    user_factors: np.ndarray  # n_users x d
    last_factors: np.ndarray  # n_articles x d
    next_factors: np.ndarray  # n_articles x d
    last_mapping: np.ndarray  # m x d, content -> last-position vectors
    next_mapping: np.ndarray  # m x d, content -> next-position vectors
    users: dict[str, int]
    articles: dict[str, int]
    loss_trace: list = field(default_factory=list)  # (stage label, objective value)


def _uniform_draws(rng: np.random.Generator, n: int, batch: int):
    """The values of successive rng.integers(n) calls, drawn `batch` at a time."""
    while True:
        yield from rng.integers(n, size=batch).tolist()


def sample_negatives(triplet_set: TripletSet, negatives_per_positive: int, seed: int) -> Instances:
    """Build the training instances: each positive followed by its negatives.

    For each positive (u, i, j), up to `negatives_per_positive` articles j' are
    drawn uniformly from the train article universe with j' != j, j' != i and
    (u, i, j') not a positive, rejection-resampling at most 100 times per slot.
    Candidates come from batched rng.integers draws (one value per slot, refilled
    as rejections use them up) consumed strictly in slot order; a batched draw
    yields the same values as that many scalar draws. Positives and their
    confidences are read off the set's u/i/j/confidence columns.
    """
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    n_articles = len(triplet_set.articles)
    if n_articles < 3:
        raise ValueError(
            "article universe of size %d is too small to sample negatives" % n_articles
        )
    encoded = list(zip(triplet_set.u.tolist(), triplet_set.i.tolist(), triplet_set.j.tolist()))
    positives = set(encoded)

    rng = np.random.default_rng(seed)
    draws = _uniform_draws(rng, n_articles, len(encoded) * negatives_per_positive)
    source, jj = [], []  # per instance: its positive's position in `encoded`, its next article
    for k, (u, i, j) in enumerate(encoded):
        source.append(k)
        jj.append(j)
        for _ in range(negatives_per_positive):
            for _attempt in range(100):
                j_neg = next(draws)
                if j_neg != j and j_neg != i and (u, i, j_neg) not in positives:
                    source.append(k)
                    jj.append(j_neg)
                    break

    positive = triplet_set.j[source] == jj  # a negative's j' never equals its positive's j
    weight = np.where(positive, triplet_set.confidence[source], 1.0)
    return Instances(u=triplet_set.u[source], i=triplet_set.i[source], j=jj, target=positive, weight=weight,
                     users=triplet_set.users, articles=triplet_set.articles)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nd,nd->n", a, b)


# Values per gathered buffer of `_data_loss` (128 KB of float64): the three
# buffers of a block stay in cache, and their memory does not grow with the
# number of instances.
_LOSS_CHUNK_VALUES = 1 << 14


def _data_loss(U, X, Y, instances: Instances) -> float:
    """Confidence-weighted squared error; U, X and Y rows are gathered once per block of instances."""
    pred = np.empty(len(instances))
    step = max(1, _LOSS_CHUNK_VALUES // U.shape[1])
    for lo in range(0, len(instances), step):
        block = slice(lo, lo + step)
        u = np.take(U, instances.u[block], axis=0)
        x = np.take(X, instances.i[block], axis=0)
        y = np.take(Y, instances.j[block], axis=0)
        pred[block] = _row_dots(u, x) + _row_dots(u, y) + _row_dots(x, y)
    resid = instances.target - pred
    return float(np.dot(instances.weight * resid, resid))


def _regularized(loss: float, U, X, Y, hyper: Hyperparams) -> float:
    """`loss` plus reg_user ||U||^2 + reg_last ||X||^2 + reg_next ||Y||^2.

    X and Y are the last and next factors, or forbes' two content mappings.
    """
    loss += hyper.reg_user * float(np.sum(U * U))
    loss += hyper.reg_last * float(np.sum(X * X))
    loss += hyper.reg_next * float(np.sum(Y * Y))
    return loss


def _full_loss(U, X, Y, instances: Instances, hyper: Hyperparams) -> float:
    return _regularized(_data_loss(U, X, Y, instances), U, X, Y, hyper)


def _group_rows(indices: np.ndarray):
    """Instances grouped by factor row; `Instances.groups` computes it once per record.

    Returns (order, bounds, rows, buckets). `order` lists instance positions
    sorted by (run length, row), stably: rows with equal instance counts are
    adjacent and each row's run keeps instance order. `rows` are the distinct
    rows that have instances, in that order, and `bounds[k]` is the start of
    row k's run in `order`. `buckets` holds (members, span, length) per
    distinct run length, ascending: the rows rows[members] have `length`
    instances each, and their runs fill order[span], so that block reshapes
    to (rows, length, ...).
    """
    distinct, inverse, counts = np.unique(indices, return_inverse=True, return_counts=True)
    order = np.lexsort((indices, counts[inverse]))
    by_length = np.argsort(counts, kind="stable")
    rows, counts = distinct[by_length], counts[by_length]
    bounds = np.cumsum(counts) - counts
    lengths, starts = np.unique(counts, return_index=True)
    stops = np.append(starts[1:], counts.size)
    buckets = []
    for start, stop, length in zip(starts.tolist(), stops.tolist(), lengths.tolist()):
        lo = int(bounds[start])
        buckets.append((slice(start, stop), slice(lo, lo + (stop - start) * length), length))
    return order, bounds, rows, buckets


class _AlsWorkspace(NamedTuple):
    """The buffers one ALS trainer call's half-sweeps write into, allocated once."""

    left: np.ndarray  # (n, d): gathered left factors, then the design g
    right: np.ndarray  # (n, d): gathered right factors, then c * g, then c * e * g
    index: np.ndarray  # (n,): factor rows of the gather in progress
    resid: np.ndarray  # (n,): e, then the residual the update leaves
    conf: np.ndarray  # (n,): confidences c in group order
    fitted: np.ndarray  # (n,): left.right, then w_row(n).g_n, then c * resid
    systems: np.ndarray  # (max rows, d, d): normal matrices of the rows updated


def _als_workspace(n: int, dim: int, max_rows: int) -> _AlsWorkspace:
    """Buffers for half-sweeps over up to `n` instances that update up to `max_rows` rows."""
    return _AlsWorkspace(left=np.empty((n, dim)), right=np.empty((n, dim)), index=np.empty(n, dtype=np.intp),
                         resid=np.empty(n), conf=np.empty(n), fitted=np.empty(n),
                         systems=np.empty((max_rows, dim, dim)))


def _als_update(target, groups, left, left_idx, right, right_idx, tt, cc, reg, workspace) -> float:
    """Closed-form row update for one factor matrix, all rows at once; returns its data loss.

    Row r minimizes sum_n c_n (t_n - w.(left_n + right_n) - left_n.right_n)^2
    + reg ||w||^2 over its instances; rows with no instances keep their value.
    With g_n = left_n + right_n and e_n = t_n - left_n.right_n, row r solves
    (sum c_n g_n g_n' + reg I) w = sum c_n e_n g_n, the per-row closed form of
    Hu, Koren & Volinsky (ICDM 2008). The instances are gathered in
    `_group_rows` order (`groups`, from `Instances.groups`), so the rows of
    one run length form a bucket whose instances are one contiguous block:
    its normal matrices are one stacked matmul over (rows, length, d) views
    of that block, with no per-row loop. The right-hand sides are one
    `np.add.reduceat`, and every row is factored by one stacked Cholesky.
    When that fails, each row's normal matrix is factored by
    `ridge_cholesky`, the one rule for a ridge system that fails to factor
    (a jitter retry, or SingularSystemError); either way every row is
    solved by one `cho_solve_stacked`. No row reads the matrix being
    updated, so this equals solving the rows one by one.

    Every size-n intermediate lives in `workspace`, which `_als_train`
    allocates once per call (`_als_workspace`), so a half-sweep allocates
    nothing that grows with the number of instances.
    The gathers use `mode="clip"`: under the default `mode="raise"` numpy
    gathers into a temporary and copies it to `out`, which made a take twice
    as slow. Clipping never fires on valid codes: `Instances` checks every
    u/i/j code against its id list, and the factors have a row per id.

    The return value is sum_n c_n (e_n - w_row(n).g_n)^2, the weighted data
    loss with the updated rows, from the residuals already at hand: the
    caller adds the regularizers instead of making a second pass over the
    instances.
    """
    order, bounds, rows, buckets = groups
    if rows.size == 0:
        return 0.0
    n, dim = order.size, target.shape[1]
    index, fitted = workspace.index[:n], workspace.fitted[:n]
    lf = np.take(left, np.take(left_idx, order, out=index, mode="clip"), axis=0,
                 out=workspace.left[:n], mode="clip")
    rf = np.take(right, np.take(right_idx, order, out=index, mode="clip"), axis=0,
                 out=workspace.right[:n], mode="clip")
    resid = np.take(tt, order, out=workspace.resid[:n], mode="clip")
    resid -= np.einsum("nd,nd->n", lf, rf, out=fitted)
    conf = np.take(cc, order, out=workspace.conf[:n], mode="clip")
    design = np.add(lf, rf, out=lf)
    weighted = np.multiply(design, conf[:, None], out=rf)
    systems = workspace.systems[: rows.size]
    for members, span, length in buckets:
        block = (-1, length, dim)
        np.matmul(weighted[span].reshape(block).transpose(0, 2, 1), design[span].reshape(block),
                  out=systems[members])
    diag = np.arange(dim)
    systems[:, diag, diag] += reg
    rhs = np.add.reduceat(np.multiply(weighted, resid[:, None], out=rf), bounds, axis=0)

    try:
        chol = np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        chol = np.stack([ridge_cholesky(system, reg) for system in systems])
    solution = cho_solve_stacked(chol, rhs)
    target[rows] = solution

    for members, span, length in buckets:
        np.matmul(design[span].reshape(-1, length, dim), solution[members, :, None],
                  out=fitted[span].reshape(-1, length, 1))
    resid -= fitted
    return float(np.dot(np.multiply(conf, resid, out=fitted), resid))


def _init_factors(rng: np.random.Generator, n_users: int, n_articles: int, dim: int):
    # Draw order (U, X, Y) is part of the determinism contract: almm and oord
    # draw their factors here, forbes its U, Psi_X and Psi_Y (m rows each).
    scale = 0.1 / np.sqrt(dim)
    U = rng.normal(0.0, scale, size=(n_users, dim))
    X = rng.normal(0.0, scale, size=(n_articles, dim))
    Y = rng.normal(0.0, scale, size=(n_articles, dim))
    return U, X, Y


def _factor_model(kind, hyper, U, X, Y, last_mapping, next_mapping, trace, instances):
    """A trained model whose id maps are the record's id lists, numbered in list order."""
    return FactorModel(
        kind=kind,
        hyper=hyper,
        user_factors=U,
        last_factors=X,
        next_factors=Y,
        last_mapping=last_mapping,
        next_mapping=next_mapping,
        users={a: k for k, a in enumerate(instances.users)},
        articles={a: k for k, a in enumerate(instances.articles)},
        loss_trace=trace,
    )


def _check_training_inputs(instances, content) -> None:
    """Raise, before any factor is drawn, on no instances or a content row count other than
    the record's article count; `Instances` has already checked every code."""
    if not instances:
        raise EmptyInputError("no training instances")
    if content.shape[0] != len(instances.articles):
        raise ValueError("content has %d rows, expected one per article of the instances: %d"
                         % (content.shape[0], len(instances.articles)))


def _materialize(content, mapping) -> np.ndarray:
    return content @ mapping


def _als_sweeps(U, X, Y, instances: Instances, workspace, hyper, trace, label):
    uu, ii, jj, tt, cc = instances.u, instances.i, instances.j, instances.target, instances.weight
    groups_u, groups_i, groups_j = instances.groups
    data = _als_update(U, groups_u, X, ii, Y, jj, tt, cc, hyper.reg_user, workspace=workspace)
    trace.append(("%s:users" % label, _regularized(data, U, X, Y, hyper)))
    data = _als_update(X, groups_i, U, uu, Y, jj, tt, cc, hyper.reg_last, workspace=workspace)
    trace.append(("%s:last" % label, _regularized(data, U, X, Y, hyper)))
    data = _als_update(Y, groups_j, U, uu, X, ii, tt, cc, hyper.reg_next, workspace=workspace)
    trace.append(("%s:next" % label, _regularized(data, U, X, Y, hyper)))


def _als_train(kind, instances, content, hyper: Hyperparams) -> FactorModel:
    """The ALS loop behind almm_train and oord_train; `kind` is "almm" or "oord".

    Both kinds validate, draw U, X, Y through _init_factors, factor the
    content Gram once and run the same ALS half-sweeps over the record's
    shared `groups`, through one `_AlsWorkspace` allocated here. Each
    half-sweep logs "iter<k>:users", ":last" or ":next" with the objective
    it leaves: the data loss `_als_update` returns plus the three
    regularizers. Under "almm" every iteration then fits the
    mappings, refreshes the article factors when refresh_blend > 0 and logs
    "iter<k>:refresh" from a full pass (`_full_loss`), as is "init"; under
    "oord" the mappings are fit once, after the loop, from the final factors.
    A non-finite last objective of an iteration raises DivergenceError.
    """
    hyper.validate()
    _check_training_inputs(instances, content)
    rng = np.random.default_rng(hyper.seed)
    U, X, Y = _init_factors(rng, len(instances.users), content.shape[0], hyper.latent_dim)
    max_rows = max(rows.size for _, _, rows, _ in instances.groups)
    workspace = _als_workspace(len(instances), hyper.latent_dim, max_rows)
    trace = [("init", _full_loss(U, X, Y, instances, hyper))]
    map_content = ridge_factor(content, hyper.reg_mapping)
    for it in range(1, hyper.iterations + 1):
        label = "iter%d" % it
        _als_sweeps(U, X, Y, instances, workspace, hyper, trace, label)
        if kind == "almm":
            last_mapping = map_content(X)
            next_mapping = map_content(Y)
            if hyper.refresh_blend > 0.0:
                blend = hyper.refresh_blend
                X = (1.0 - blend) * X + blend * _materialize(content, last_mapping)
                Y = (1.0 - blend) * Y + blend * _materialize(content, next_mapping)
            trace.append(("%s:refresh" % label, _full_loss(U, X, Y, instances, hyper)))
        if not np.isfinite(trace[-1][1]):
            raise DivergenceError("non-finite objective at iteration %d" % it)
    if kind == "oord":
        last_mapping = map_content(X)
        next_mapping = map_content(Y)
    return _factor_model(kind, hyper, U, X, Y, last_mapping, next_mapping, trace, instances)


def almm_train(instances, content, hyper: Hyperparams) -> FactorModel:
    """Joint ALS + ridge mapping + refresh loop.

    Per iteration: (a) ALS half-sweeps over user, last-article and next-article
    factors (each row a weighted ridge solve with the other factors fixed),
    (b) content mappings fit by ridge regression onto the current factors
    (the content Gram is factored once, before the first iteration),
    (c) article factors blended toward the mapped features by refresh_blend.
    Factors are initialized from seeded Gaussian(0, 0.1/sqrt(d)) draws in the
    order U, X, Y; `instances` is the Instances record from sample_negatives,
    so the negatives arrive pre-sampled and stay fixed across iterations.
    """
    return _als_train("almm", instances, content, hyper)


# Lazy weight decay keeps each mapping as scale * rows and folds the scale
# into the rows before |scale| leaves [_SCALE_FLOOR, 1 / _SCALE_FLOOR]
# (Bottou, "Stochastic Gradient Descent Tricks", 2012).
_SCALE_FLOOR = 1e-9


def _forbes_plan(instances, content):
    """Per-instance (rows, selector, weight, target), built once per trainer.

    `rows` indexes the stacked state S = [Psi_X; Psi_Y; U] ((2m + n_users) x d):
    the last article's content columns, then the next article's offset by m,
    then the user's row 2m + u, so no two blocks share a row, even when i == j.
    `sel` (3 x len(rows)) holds a_i's values in row 0, a_j's in row 1 and a
    single 1 for the user in row 2, so sel @ S[rows] = [a_i Psi_X; a_j Psi_Y; U_u].
    Dense content uses every column.
    """
    m = content.shape[1]
    if isinstance(content, CSRMatrix):
        bounds = zip(content.indptr[:-1].tolist(), content.indptr[1:].tolist())
        articles = [(content.indices[lo:hi], content.data[lo:hi]) for lo, hi in bounds]
    else:
        dense = np.asarray(content, dtype=np.float64)
        columns = np.arange(m)
        articles = [(columns, row) for row in dense]
    plan = []
    fields = (instances.u, instances.i, instances.j, instances.weight, instances.target)
    for u, i, j, weight, target in zip(*(values.tolist() for values in fields)):
        idx_i, vals_i = articles[i]
        idx_j, vals_j = articles[j]
        rows = np.concatenate((idx_i, idx_j + m, (2 * m + u,))).astype(np.intp)
        sel = np.zeros((3, rows.size))
        sel[0, : idx_i.size] = vals_i
        sel[1, idx_i.size : -1] = vals_j
        sel[2, -1] = 1.0
        plan.append((rows, sel, weight, target))
    return plan


def _fold_period(factors) -> int:
    """Decays after which some |scale| could leave [_SCALE_FLOOR, 1 / _SCALE_FLOOR]; 0 for never."""
    rates = [abs(math.log(abs(f))) if f else math.inf for f in factors if abs(f) != 1.0]
    return max(1, int(-math.log(_SCALE_FLOOR) / max(rates))) if rates else 0


def _fold(S, m, scale_x, scale_y):
    """Multiply the Psi_X and Psi_Y blocks of S by their scales; the caller resets both to 1."""
    S[:m] *= scale_x
    S[m : 2 * m] *= scale_y


def _sgd_epoch(order, plan, S, m, lr, hyper):
    """One forbes SGD pass in `order`, updating the stacked state S = [Psi_X; Psi_Y; U] in place.

    Psi_X is scale_x * S[:m] and Psi_Y is scale_y * S[m:2m] (lazy decay), with
    both scales kept as Python floats. Per update:
        G = S[rows];  raw = sel @ G = [x / scale_x; y / scale_y; U_u]
        g = raw @ raw.T (3 x 3);  err = weight * (target - score) from g
        decay both scales, folding them into S when due
        G += sel.T @ (A @ raw);  S[rows] = G
    With c = lr * err, the rows of A @ raw are the Psi_X step c * (U_u + y)
    and the Psi_Y step c * (U_u + x), each over its block's new scale, and
    the user step (keep_user - 1) * U_u + c * (x + y). A non-finite c raises
    FloatingPointError, since Python float arithmetic traps no overflow.
    """
    keep_user = 1.0 - lr * hyper.reg_user
    decay_x = 1.0 - lr * hyper.reg_last
    decay_y = 1.0 - lr * hyper.reg_next
    period = _fold_period((decay_x, decay_y))
    scale_x = scale_y = 1.0
    since_fold = 0
    A = np.zeros((3, 3))  # the diagonal stays (0, 0, keep_user - 1); each update writes the rest
    A[2, 2] = keep_user - 1.0
    for pos in order.tolist():
        rows, sel, weight, target = plan[pos]
        G = S.take(rows, axis=0)
        raw = sel.dot(G)  # ndarray.dot: less call overhead than @ on these small operands
        g = raw.dot(raw.T).tolist()
        xu, xy, yu = g[0][2], g[0][1], g[1][2]
        err = weight * (target - (scale_x * xu + scale_y * yu + scale_x * scale_y * xy))
        c = lr * err
        if not math.isfinite(c):
            raise FloatingPointError("non-finite step lr * err = %r" % c)
        new_x = scale_x * decay_x
        new_y = scale_y * decay_y
        since_fold += 1
        if since_fold == period:
            _fold(S, m, new_x, new_y)
            G = S.take(rows, axis=0)
            new_x = new_y = 1.0
            since_fold = 0
        cx = c / new_x
        cy = c / new_y
        A[0, 1] = cx * scale_y
        A[0, 2] = cx
        A[1, 0] = cy * scale_x
        A[1, 2] = cy
        A[2, 0] = c * scale_x
        A[2, 1] = c * scale_y
        G += sel.T.dot(A.dot(raw))
        S[rows] = G
        scale_x, scale_y = new_x, new_y
    _fold(S, m, scale_x, scale_y)


def _forbes_objective(content, S, instances: Instances, hyper: Hyperparams) -> float:
    """Weighted data loss with mapped article vectors plus the U and mapping regularizers."""
    m = content.shape[1]
    last_mapping, next_mapping, U = S[:m], S[m : 2 * m], S[2 * m :]
    X = _materialize(content, last_mapping)
    Y = _materialize(content, next_mapping)
    return _regularized(_data_loss(U, X, Y, instances), U, last_mapping, next_mapping, hyper)


def forbes_train(instances, content, hyper: Hyperparams) -> FactorModel:
    """Single-stage SGD with article vectors defined through the content mappings.

    Per instance, with x, y and the user vector evaluated before the updates
    and e = weight * (target - score):
        U_u     += lr * (e * (x + y) - reg_user * U_u)
        Psi_X   += lr * (e * a_i (x) (U_u + y) - reg_last * Psi_X)
        Psi_Y   += lr * (e * a_j (x) (U_u + x) - reg_next * Psi_Y)
    Instances are reshuffled each epoch and the learning rate decays by
    sgd_decay per epoch; update order is part of the determinism contract.

    Both mappings and the user factors live in one stacked
    ((2m + n_users) x d) array S = [Psi_X; Psi_Y; U], and a plan built once
    per call gives each instance its rows of S (a_i's nonzero columns, a_j's
    offset by m, the user's row 2m + u) and a 3-row selector holding a_i's
    values, a_j's values and a 1 for the user. An update gathers those rows
    once, maps them to [x; y; U_u] with one matmul, takes the error from
    their 3 x 3 Gram, applies all three updates with one more matmul through
    a 3 x 3 coefficient matrix and writes the rows back: O(nnz * d) work. The
    decay is lazy: each mapping is a scalar scale times its block of S, decay
    multiplies the scale only, and the scale is folded into S at the end of
    every epoch and whenever its magnitude would leave [1e-9, 1e9] (so
    lr * reg = 1 zeroes the mapping as the eager decay does).

    After every epoch ("epoch<k>", objective) joins loss_trace: the weighted
    data loss plus reg_user ||U||^2 + reg_last ||Psi_X||^2 + reg_next ||Psi_Y||^2.
    A floating-point overflow or invalid operation inside an epoch, a
    non-finite lr * err or a non-finite objective raises DivergenceError
    naming that epoch, before any non-finite value spreads, and the largest
    content row norm^2 with the epoch's lr times it.
    """
    hyper.validate()
    _check_training_inputs(instances, content)
    m = content.shape[1]
    rng = np.random.default_rng(hyper.seed)
    U, last_init, next_init = _init_factors(rng, len(instances.users), m, hyper.latent_dim)
    S = np.concatenate((last_init, next_init, U))
    plan = _forbes_plan(instances, content)

    trace = []
    lr = hyper.sgd_lr
    for epoch in range(1, hyper.sgd_epochs + 1):
        order = rng.permutation(len(instances))
        try:
            with np.errstate(over="raise", invalid="raise"):
                _sgd_epoch(order, plan, S, m, lr, hyper)
                loss = _forbes_objective(content, S, instances, hyper)
                if not np.isfinite(loss):
                    raise FloatingPointError("non-finite objective %g" % loss)
        except FloatingPointError as exc:
            # a step moves x = a_i Psi_X by lr * err * |a_i|^2 * (U_u + y): near lr * |a_i|^2 = 1 it overshoots
            squares = (CSRMatrix(content.data ** 2, content.indices, content.indptr, content.shape)
                       if isinstance(content, CSRMatrix) else np.square(content))
            norm2 = float((squares @ np.ones(m)).max())
            raise DivergenceError("SGD diverged in epoch %d: %s; largest content row norm^2 %.4g, lr * norm^2 %.4g"
                                  % (epoch, exc, norm2, lr * norm2)) from None
        trace.append(("epoch%d" % epoch, loss))
        lr *= hyper.sgd_decay

    last_mapping, next_mapping, U = S[:m], S[m : 2 * m], S[2 * m :]
    X = _materialize(content, last_mapping)
    Y = _materialize(content, next_mapping)
    return _factor_model("forbes", hyper, U, X, Y, last_mapping, next_mapping, trace, instances)


def oord_train(instances, content, hyper: Hyperparams) -> FactorModel:
    """Two-stage trainer: pure ALS without content, then post-hoc ridge mappings.

    Stage 1 is almm_train's loop (`_als_train`, with the same seeded init
    draw order) less the per-iteration mappings and refresh; stage 2 fits the
    mappings once, from the final factors. Factors, mappings and loss trace
    are therefore bit-identical to an almm run with refresh_blend = 0, whose
    trace only adds the "iter<k>:refresh" entries. Prediction for this kind
    always uses mapped features.
    """
    return _als_train("oord", instances, content, hyper)


def article_vectors(model: FactorModel, ids, features, position: str) -> np.ndarray:
    """Last- (`position="last"`) or next-position vectors of the article `ids`, one row each.

    Stored factors for trained articles (almm/forbes); content-mapped vectors,
    from one `features.rows(ids) @ mapping`, for cold articles and for every
    article under the oord kind.
    """
    factors, mapping = {
        "last": (model.last_factors, model.last_mapping),
        "next": (model.next_factors, model.next_mapping),
    }[position]
    out = np.empty((len(ids), model.hyper.latent_dim))
    stored_pos, stored_rows = [], []
    mapped_pos, mapped_ids = [], []
    for pos, article in enumerate(ids):
        idx = None if model.kind == "oord" else model.articles.get(article)
        if idx is None:
            mapped_pos.append(pos)
            mapped_ids.append(article)
        else:
            stored_pos.append(pos)
            stored_rows.append(idx)
    if stored_pos:
        out[stored_pos] = factors[stored_rows]
    if mapped_pos:
        out[mapped_pos] = features.rows(mapped_ids) @ mapping
    return out


# Scores in one query chunk of the scoring kernel (8 MB of float64): bounds
# its memory whatever the numbers of queries and candidates.
_RANK_CHUNK_SCORES = 1 << 20


def _tie_order(model: FactorModel, candidates) -> list:
    """Candidates in predict's tie order: trained by trained index, then cold by article id."""
    trained = model.articles
    return sorted(candidates, key=lambda a: (0, trained[a]) if a in trained else (1, a))


def _user_vectors(model: FactorModel, users) -> np.ndarray:
    """Stored user factors, one row per user; zero rows for unseen users."""
    out = np.zeros((len(users), model.hyper.latent_dim))
    seen = [(pos, model.users[u]) for pos, u in enumerate(users) if u in model.users]
    if seen:
        pos, rows = zip(*seen)
        out[list(pos)] = model.user_factors[list(rows)]
    return out


def score_queries(model: FactorModel, users, articles, u, i, candidates, features):
    """Score `candidates` for every query (users[u[q]], articles[i[q]]); no ranking.

    The queries are a triplet side's id lists and code columns: each listed
    user and article is resolved to a vector once, and a query gathers its
    vectors by code. Returns (ordered, chunks). `ordered` lists the candidates
    in predict's tie order. `chunks` yields (start, neg_scores) per block of
    about 2^20 scores: neg_scores[r, c] is minus the score of ordered[c] for
    query start + r, each score U_u.Y_c + X_i.Y_c + U_u.X_i as in predict. The
    negation is exact, so a stable argsort of a row ranks by descending score
    with ties in tie order.

    Every listed article and every candidate must have a feature row;
    otherwise MissingArticlesError names the missing ones, before any
    scoring, as `FeatureMatrix.rows` does.
    """
    articles, candidates = list(articles), list(candidates)
    if not candidates:
        raise ValueError("candidates must be non-empty")
    missing = {a for a in articles if a not in features.row_index}
    missing.update(a for a in candidates if a not in features.row_index)
    if missing:
        raise MissingArticlesError(sorted(missing), "feature matrix")
    ordered = _tie_order(model, candidates)
    next_t = article_vectors(model, ordered, features, "next").T
    user_rows = _user_vectors(model, users)
    last_rows = article_vectors(model, articles, features, "last")
    step = max(1, _RANK_CHUNK_SCORES // len(ordered))

    def chunks():
        for start in range(0, len(u), step):
            U = user_rows[u[start : start + step]]
            X = last_rows[i[start : start + step]]
            neg = U @ next_t
            neg += X @ next_t
            neg += _row_dots(U, X)[:, None]
            np.negative(neg, out=neg)  # exact, so ties and their stable order are kept
            yield start, neg

    return ordered, chunks()


def predict(model: FactorModel, user: str, last_article: str, candidates, features):
    """Rank candidates by score descending; returns (article id, score) pairs.

    Ties break by ascending trained article index, with cold candidates (no
    trained index) ordered after trained ones by article id, which makes the
    ranking invariant to candidate input order. Unseen users score with a zero
    user vector, reducing the score to X_i.Y_j.
    """
    ordered, chunks = score_queries(model, [user], [last_article], [0], [0], candidates, features)
    _, neg = next(chunks)
    return [(ordered[p], -float(neg[0, p])) for p in np.argsort(neg[0], kind="stable").tolist()]


def save_model(model: FactorModel, dirpath) -> None:
    """Persist manifest.json, which lists the user and article ids in row order, plus the
    five factor/mapping matrices."""
    manifest = {
        "kind": model.kind,
        "hyperparams": asdict(model.hyper),
        "users": sorted(model.users, key=model.users.get),
        "articles": sorted(model.articles, key=model.articles.get),
        "loss_trace": model.loss_trace,
    }
    write_json(manifest, os.path.join(dirpath, file_name("model_manifest")))
    for attr in _MATRICES:
        save_matrix(getattr(model, attr), os.path.join(dirpath, file_name(attr)))


def _loss_trace(pairs, path, key: str) -> list:
    """The (stage label, objective value) pairs of a model manifest's `key`; anything but a list
    of [string, finite number] pairs is a FormatError naming the path and key."""
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and fits(p[0], str) and fits(p[1], float)
            and -math.inf < p[1] < math.inf for p in pairs)):
        raise FormatError("%s: %s must be a list of [label, finite number] pairs" % (path, key))
    return [tuple(p) for p in pairs]


_MANIFEST_FIELDS = {"hyperparams": {key: type(default) for key, default in asdict(Hyperparams()).items()},
                    "users": id_positions, "articles": id_positions, "loss_trace": _loss_trace}


def load_model(dirpath, kind: str | None = None) -> FactorModel:
    """Read a model directory; a manifest that read_manifest rejects (its kind, when given, is the
    kind the caller expects), a hyperparameter outside its range (Hyperparams.validate), or a
    matrix whose shape contradicts the manifest is a FormatError.

    U must have one row per manifest user, X and Y one per manifest article,
    every matrix `latent_dim` columns, and PsiY the shape of PsiX, so a
    directory mixed from two runs fails here rather than scoring silently.
    A NaN or infinite value in any matrix is a FormatError naming its file.
    """
    manifest_path = os.path.join(dirpath, file_name("model_manifest"))
    manifest = read_manifest(manifest_path, _MANIFEST_FIELDS, MODEL_KINDS, kind)
    hyper = Hyperparams(**manifest.pop("hyperparams"))
    try:
        hyper.validate()
    except ValueError as exc:
        raise FormatError("%s: hyperparams.%s" % (manifest_path, exc)) from None
    paths = {attr: os.path.join(dirpath, file_name(attr)) for attr in _MATRICES}
    matrices = {attr: load_matrix(path) for attr, path in paths.items()}
    model = FactorModel(hyper=hyper, **manifest, **matrices)
    n_articles, m = len(model.articles), len(model.last_mapping)  # PsiY takes PsiX's rows
    rows = dict(user_factors=len(model.users), last_factors=n_articles, next_factors=n_articles,
                last_mapping=m, next_mapping=m)
    for attr, path in paths.items():
        matrix = matrices[attr]
        shape, expected = matrix.shape, (rows[attr], model.hyper.latent_dim)
        if shape != expected:
            raise FormatError("%s: shape %s, expected %s" % (path, shape, expected))
        if not np.isfinite(matrix).all():
            raise FormatError("%s: non-finite values" % path)
    return model
