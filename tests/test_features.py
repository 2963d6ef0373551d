import hashlib
import math

import numpy as np
import pytest

from coldrec.errors import EmptyInputError, FormatError, MissingArticlesError
from coldrec.features import (
    FeatureMatrix,
    VectorizerConfig,
    fit_tfidf,
    load_external_embeddings,
    tokenize,
    transform,
)
from coldrec.mind import Article
from coldrec.numerics import CSRMatrix


def catalog_from(docs):
    """docs: (id, title, abstract) tuples."""
    return {i: Article(i, "cat", "sub", t, a) for i, t, a in docs}


ORACLE_DOCS = [
    ("D1", "apple banana apple", "cherry banana"),
    ("D2", "banana date", ""),
    ("D3", "cherry cherry", "apple elderberry fig"),
    ("D4", "grape", "grape grape banana"),
    ("D5", "apple fig", "date elderberry"),
]

NO_STOPWORDS = VectorizerConfig(min_token_len=2, max_vocab=100, remove_stopwords=False)


def brute_force_tfidf(docs):
    """Independent oracle: dict-based TF-IDF with the same smoothing and L2 norm."""
    token_lists = [(title + " " + abstract).lower().split() for _, title, abstract in docs]
    vocab = sorted({tok for toks in token_lists for tok in toks})
    n = len(docs)
    idf = {}
    for term in vocab:
        df = sum(1 for toks in token_lists if term in toks)
        idf[term] = math.log((1 + n) / (1 + df)) + 1.0
    rows = []
    for toks in token_lists:
        weights = [toks.count(term) * idf[term] for term in vocab]
        norm = math.sqrt(sum(w * w for w in weights))
        rows.append([w / norm if norm else 0.0 for w in weights])
    return vocab, rows


class TestTokenize:
    def test_possessive_and_punctuation(self):
        assert tokenize("Trump's Win!") == ["trump", "win"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_hyphen_split(self):
        assert tokenize("COVID-19 cases", min_token_len=2) == ["covid", "19", "cases"]

    def test_min_token_len(self):
        assert tokenize("a an the cat", min_token_len=3) == ["the", "cat"]

    def test_stopword_removal(self):
        assert tokenize("the cat and the hat", stopwords={"the", "and"}) == ["cat", "hat"]


class TestFitTfidf:
    def test_single_document_idf_is_one(self):
        catalog = catalog_from([("D1", "alpha beta", "gamma")])
        vec = fit_tfidf(catalog, NO_STOPWORDS)
        # N = df = 1 -> ln(2/2) + 1 = 1 for every term
        np.testing.assert_allclose(vec.idf, np.ones(len(vec.vocabulary)), atol=0)

    def test_idf_formula_hand_values(self):
        catalog = catalog_from(
            [("D1", "common rare", ""), ("D2", "common", ""), ("D3", "common", "")]
        )
        vec = fit_tfidf(catalog, NO_STOPWORDS)
        # term in all 3 docs: ln(4/4) + 1 = 1; term in 1 doc: ln(4/2) + 1
        assert vec.idf[vec.vocabulary["common"]] == pytest.approx(1.0, abs=0)
        assert vec.idf[vec.vocabulary["rare"]] == pytest.approx(math.log(2.0) + 1.0, abs=1e-12)
        assert vec.idf[vec.vocabulary["rare"]] == pytest.approx(1.6931, abs=1e-4)

    def test_max_vocab_tie_break_lexicographic(self):
        catalog = catalog_from(
            [
                ("D1", "aa bb", ""),
                ("D2", "aa cc", ""),
                ("D3", "aa bb cc", ""),
            ]
        )
        # df: aa=3, bb=2, cc=2; max_vocab=2 keeps aa and (tie) bb
        vec = fit_tfidf(catalog, VectorizerConfig(max_vocab=2, remove_stopwords=False))
        assert set(vec.vocabulary) == {"aa", "bb"}

    def test_empty_catalog_raises(self):
        with pytest.raises(EmptyInputError):
            fit_tfidf({}, NO_STOPWORDS)

    def test_deterministic(self):
        catalog = catalog_from(ORACLE_DOCS)
        first = fit_tfidf(catalog, NO_STOPWORDS)
        second = fit_tfidf(catalog, NO_STOPWORDS)
        assert first.vocabulary == second.vocabulary
        np.testing.assert_array_equal(first.idf, second.idf)

    def test_idf_positive_and_vocabulary_bijective(self):
        catalog = catalog_from(ORACLE_DOCS)
        vec = fit_tfidf(catalog, NO_STOPWORDS)
        assert np.all(np.isfinite(vec.idf))
        assert np.all(vec.idf > 0)
        assert sorted(vec.vocabulary.values()) == list(range(len(vec.vocabulary)))

    def test_stopwords_excluded_when_enabled(self):
        catalog = catalog_from([("D1", "the cat sat", "on the mat")])
        vec = fit_tfidf(catalog, VectorizerConfig(remove_stopwords=True))
        assert "the" not in vec.vocabulary
        assert "cat" in vec.vocabulary


class TestTransform:
    def test_raw_counts_times_idf_then_l2(self):
        catalog = catalog_from([("D1", "aa aa bb", "")])
        vec = fit_tfidf(catalog, NO_STOPWORDS)  # idf == 1 everywhere
        fm = transform(vec, catalog)
        row = fm.rows(["D1"]).toarray()[0]
        expected = np.array([2.0, 1.0]) / math.sqrt(5.0)
        np.testing.assert_allclose(
            sorted(row, reverse=True), sorted(expected, reverse=True), atol=1e-12
        )

    def test_out_of_vocabulary_document_is_zero_row(self):
        catalog = catalog_from([("D1", "aa bb", "")])
        vec = fit_tfidf(catalog, NO_STOPWORDS)
        other = catalog_from([("D2", "zz yy", "")])
        fm = transform(vec, other)
        assert np.all(fm.rows(["D2"]).toarray() == 0.0)

    def test_matches_brute_force_oracle(self):
        catalog = catalog_from(ORACLE_DOCS)
        vec = fit_tfidf(catalog, NO_STOPWORDS)
        fm = transform(vec, catalog)
        oracle_vocab, oracle_rows = brute_force_tfidf(ORACLE_DOCS)
        assert sorted(vec.vocabulary) == oracle_vocab
        dense = np.asarray(fm.matrix.toarray())
        reorder = [vec.vocabulary[t] for t in oracle_vocab]
        np.testing.assert_allclose(dense[:, reorder], np.array(oracle_rows), atol=1e-12)

    def test_frozen_matrix_checksum(self):
        catalog = catalog_from(ORACLE_DOCS)
        fm = transform(fit_tfidf(catalog, NO_STOPWORDS), catalog)
        dense = np.ascontiguousarray(np.asarray(fm.matrix.toarray()), dtype="<f8")
        digest = hashlib.sha256(dense.tobytes()).hexdigest()
        assert digest == "01050456d8fee7121153ac6adf5e88c562b9cb2f09e06c26e6e3dc4b269125a8"

    def test_rows_without_a_feature_row_name_every_missing_id(self):
        catalog = catalog_from([("D1", "aa bb", ""), ("D2", "bb cc", "")])
        fm = transform(fit_tfidf(catalog, NO_STOPWORDS), catalog)
        with pytest.raises(MissingArticlesError) as err:
            fm.rows(["D1", "N9", "D2", "N7", "N9"])
        assert err.value.missing == ["N9", "N7"]
        assert str(err.value) == "tfidf feature matrix is missing 2 article id(s): N9, N7"

    @pytest.mark.parametrize("kind", ["tfidf", "external"])
    def test_rows_index_either_kind_of_matrix_alike(self, kind):
        catalog = catalog_from(ORACLE_DOCS)
        tfidf = transform(fit_tfidf(catalog, NO_STOPWORDS), catalog)
        matrix = tfidf.matrix if kind == "tfidf" else tfidf.matrix.toarray()
        seen = []

        class Recording:
            shape = matrix.shape

            def __getitem__(self, idx):
                seen.append(idx)
                return matrix[idx]

        ids = ["D4", "D1", "D4", "D2"]
        rows = FeatureMatrix(Recording(), kind, tfidf.row_index).rows(ids)
        assert seen == [[3, 0, 3, 1]]
        assert isinstance(rows, CSRMatrix if kind == "tfidf" else np.ndarray)
        dense = rows.toarray() if kind == "tfidf" else rows
        assert np.array_equal(dense, tfidf.matrix.toarray()[[3, 0, 3, 1]])

    def test_nonzero_rows_have_unit_norm(self):
        catalog = catalog_from(ORACLE_DOCS)
        fm = transform(fit_tfidf(catalog, NO_STOPWORDS), catalog)
        dense = np.asarray(fm.matrix.toarray())
        for row in dense:
            norm = np.linalg.norm(row)
            if norm > 0:
                assert 1 - 1e-9 <= norm <= 1 + 1e-9


class TestExternalEmbeddings:
    def write_embeddings(self, path, dim, rows):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("#dim %d\n" % dim)
            for article_id, values in rows:
                fh.write("%s\t%s\n" % (article_id, " ".join(str(v) for v in values)))

    def test_loads_aligned_matrix(self, tmp_path):
        catalog = catalog_from([("A1", "t", ""), ("A2", "t", ""), ("A3", "t", "")])
        path = tmp_path / "emb.tsv"
        self.write_embeddings(
            path, 4, [("A2", [1, 2, 3, 4]), ("A1", [5, 6, 7, 8]), ("A3", [9, 10, 11, 12])]
        )
        fm = load_external_embeddings(path, catalog)
        assert fm.kind == "external"
        assert fm.matrix.shape == (3, 4)
        np.testing.assert_array_equal(fm.rows(["A1", "A2"]), [[5.0, 6.0, 7.0, 8.0], [1.0, 2.0, 3.0, 4.0]])

    def test_missing_article_error_names_it(self, tmp_path):
        catalog = catalog_from([("A1", "t", ""), ("A2", "t", "")])
        path = tmp_path / "emb.tsv"
        self.write_embeddings(path, 2, [("A1", [1, 2])])
        with pytest.raises(MissingArticlesError) as err:
            load_external_embeddings(path, catalog)
        assert err.value.missing == ["A2"]
        assert str(err.value) == "%s is missing 1 article id(s): A2" % path

    def test_nan_value_is_format_error(self, tmp_path):
        catalog = catalog_from([("A1", "t", "")])
        path = tmp_path / "emb.tsv"
        path.write_text("#dim 2\nA1\t1.0 nan\n")
        with pytest.raises(FormatError):
            load_external_embeddings(path, catalog)

    def test_inconsistent_dimension_is_format_error(self, tmp_path):
        catalog = catalog_from([("A1", "t", "")])
        path = tmp_path / "emb.tsv"
        path.write_text("#dim 3\nA1\t1.0 2.0\n")
        with pytest.raises(FormatError):
            load_external_embeddings(path, catalog)

    def test_bad_header_is_format_error(self, tmp_path):
        catalog = catalog_from([("A1", "t", "")])
        path = tmp_path / "emb.tsv"
        path.write_text("dim 3\nA1\t1 2 3\n")
        with pytest.raises(FormatError):
            load_external_embeddings(path, catalog)

    def test_id_listed_twice_is_format_error_naming_line_and_id(self, tmp_path):
        catalog = catalog_from([("N1", "t", ""), ("N2", "t", "")])
        path = tmp_path / "emb.tsv"
        self.write_embeddings(path, 2, [("N1", [1, 2]), ("N2", [3, 4]), ("N1", [5, 6])])
        with pytest.raises(FormatError) as err:
            load_external_embeddings(path, catalog)
        assert str(err.value) == "%s: line 4: id N1 is listed twice" % path

    def test_unknown_ids_ignored(self, tmp_path):
        catalog = catalog_from([("A1", "t", "")])
        path = tmp_path / "emb.tsv"
        self.write_embeddings(path, 2, [("A1", [1, 2]), ("ZZ", [3, 4])])
        fm = load_external_embeddings(path, catalog)
        assert fm.matrix.shape == (1, 2)
