"""Per-article content vectors: TF-IDF fitted on the catalog, or dense external embeddings.

TF-IDF uses raw term counts, smoothed idf ln((1+N)/(1+df)) + 1, and L2 row
normalization (required for the cosine-based diversity metric to be
scale-sane). External embeddings are ingested from a simple text format, one
dense vector per article; the upstream encoder is out of scope here.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._stopwords import ENGLISH_STOPWORDS
from .artifacts import ID, parse_rows, read_lines
from .errors import EmptyInputError, FormatError, MissingArticlesError
from .mind import Article
from .numerics import CSRMatrix

_TOKEN_PATTERN = re.compile(r"[^\W_]+", re.UNICODE)

DEFAULT_MIN_TOKEN_LEN = 2


@dataclass(frozen=True)
class VectorizerConfig:
    min_token_len: int = DEFAULT_MIN_TOKEN_LEN
    max_vocab: int = 5000
    remove_stopwords: bool = True


@dataclass
class Vectorizer:
    vocabulary: dict[str, int]  # term -> column, columns assigned lexicographically
    idf: np.ndarray
    config: VectorizerConfig


class FeatureMatrix:
    """Article-aligned content vectors: a CSRMatrix (tfidf) or a dense ndarray (external)."""

    def __init__(self, matrix, kind: str, row_index: dict[str, int]):
        self.matrix = matrix
        self.kind = kind
        self.row_index = row_index

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def positions(self, ids) -> list[int]:
        """The row of each of the ids (a sequence), in their order; ids without a row are a
        MissingArticlesError naming each once, in order of first appearance."""
        index = self.row_index
        try:
            return [index[a] for a in ids]
        except KeyError:
            missing = [a for a in dict.fromkeys(ids) if a not in index]
            raise MissingArticlesError(missing, "%s feature matrix" % self.kind) from None

    def rows(self, ids):
        """`matrix[positions(ids)]`: a CSRMatrix for tfidf, an ndarray for external."""
        return self.matrix[self.positions(ids)]


def tokenize(text: str, min_token_len: int = DEFAULT_MIN_TOKEN_LEN, stopwords=None):
    """Lowercase, split on non-alphanumeric runs, drop short tokens and optional stopwords."""
    tokens = _TOKEN_PATTERN.findall(text.lower())
    out = []
    for tok in tokens:
        if len(tok) < min_token_len:
            continue
        if stopwords is not None and tok in stopwords:
            continue
        out.append(tok)
    return out


def _document_tokens(article, config: VectorizerConfig):
    stopwords = ENGLISH_STOPWORDS if config.remove_stopwords else None
    text = article.title + " " + article.abstract
    return tokenize(text, config.min_token_len, stopwords)


def fit_tfidf(catalog: dict[str, Article], config: VectorizerConfig | None = None) -> Vectorizer:
    """Fit the vocabulary (top max_vocab terms by document frequency) and smoothed idf.

    Document = title concatenated with abstract. df ties break
    lexicographically; selected terms get columns in lexicographic order.
    """
    if config is None:
        config = VectorizerConfig()
    if len(catalog) == 0:
        raise EmptyInputError("cannot fit TF-IDF on an empty catalog")
    df: Counter[str] = Counter()
    for article in catalog.values():
        df.update(set(_document_tokens(article, config)))
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[: config.max_vocab]
    vocabulary = {term: col for col, term in enumerate(sorted(term for term, _ in ranked))}
    n_docs = len(catalog)
    idf = np.empty(len(vocabulary), dtype=np.float64)
    for term, col in vocabulary.items():
        idf[col] = math.log((1.0 + n_docs) / (1.0 + df[term])) + 1.0
    return Vectorizer(vocabulary=vocabulary, idf=idf, config=config)


def transform(vectorizer: Vectorizer, catalog: dict[str, Article]) -> FeatureMatrix:
    """Raw term counts times idf, L2-normalized per row; out-of-vocabulary terms ignored.

    Articles with no in-vocabulary tokens get an all-zero row.
    """
    vocab = vectorizer.vocabulary
    idf = vectorizer.idf
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    row_index: dict[str, int] = {}
    for article in catalog.values():
        counts: Counter[int] = Counter()
        for tok in _document_tokens(article, vectorizer.config):
            col = vocab.get(tok)
            if col is not None:
                counts[col] += 1
        cols = sorted(counts)
        vals = np.array([counts[c] * idf[c] for c in cols], dtype=np.float64)
        norm = math.sqrt(float(np.dot(vals, vals)))
        if norm > 0.0:
            vals /= norm
        indices.extend(cols)
        data.extend(vals.tolist())
        indptr.append(len(indices))
        row_index[article.id] = len(row_index)
    matrix = CSRMatrix(data, indices, indptr, (len(catalog), len(vocab)))
    return FeatureMatrix(matrix=matrix, kind="tfidf", row_index=row_index)


def load_external_embeddings(path, catalog: dict[str, Article]) -> FeatureMatrix:
    """Load dense per-article vectors, aligned to catalog order.

    Format: first line `#dim <m>`, then one `news_id<TAB>v1 v2 ... vm` line
    per article. Every catalog article must be present, else a
    MissingArticlesError names the path and the missing ids; rows for unknown
    ids are ignored and blank lines skipped. An empty id or one listed twice is a
    FormatError naming the path and line.
    """
    vectors: dict[str, np.ndarray] = {}
    lines = read_lines(path)
    header = next(lines, (1, ""))[1]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "#dim":
        raise FormatError("%s: first line must be '#dim <m>', got %r" % (path, header))
    try:
        dim = int(parts[1])
    except ValueError:
        raise FormatError("%s: bad dimension %r" % (path, parts[1])) from None
    if dim < 1:
        raise FormatError("%s: dimension must be >= 1" % path)
    rows = parse_rows(path, {"id": ID, "values": str}, (row for row in lines if row[1]), "\t", key=("id",))
    for lineno, (article_id, payload) in rows:
        fields = payload.split()
        if len(fields) != dim:
            raise FormatError(
                "%s: line %d: expected %d values, got %d" % (path, lineno, dim, len(fields))
            )
        try:
            vec = np.array([float(v) for v in fields], dtype=np.float64)
        except ValueError:
            raise FormatError("%s: line %d: unparseable value" % (path, lineno)) from None
        if not np.all(np.isfinite(vec)):
            raise FormatError("%s: line %d: non-finite value" % (path, lineno))
        vectors[article_id] = vec
    missing = [a for a in catalog if a not in vectors]
    if missing:
        raise MissingArticlesError(missing, path)
    matrix = np.vstack([vectors[a] for a in catalog])
    row_index = {a: r for r, a in enumerate(catalog)}
    return FeatureMatrix(matrix=matrix, kind="external", row_index=row_index)
