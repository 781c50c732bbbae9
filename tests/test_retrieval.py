from __future__ import annotations

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smr.retrieval
from smr.core import Document
from smr.errors import CorpusError, UnknownDocumentError
from smr.records import _dump
from smr.retrieval import (
    Bm25Retriever,
    DenseRetriever,
    DenseStore,
    RowError,
    build_index,
    dense_search,
    load_corpus,
    load_dense_store,
    load_index,
    save_index,
    tokenize,
)

from oracles import (
    bm25_score,
    exhaustive_dense_ranking,
    oracle_bm25_ranking,
    oracle_bm25_scores,
    oracle_dense_ranking,
    oracle_tokenize,
    reference_bm25_sums,
    reference_csr,
)


def docs_from(texts: dict[str, str]) -> list[Document]:
    return [Document(doc_id=doc_id, text=text) for doc_id, text in texts.items()]


def bm25(texts: dict[str, str]) -> Bm25Retriever:
    return Bm25Retriever(build_index(docs_from(texts)))


def mean_length(texts: dict[str, str]) -> float:
    return sum(len(oracle_tokenize(text)) for text in texts.values()) / len(texts)


def assert_csr_matches_reference(retriever: Bm25Retriever, texts: dict[str, str]) -> None:
    """The retriever's arrays equal reference_csr's bit for bit, dtypes and vocabulary order included.
    The retriever numbers documents in doc-id order, so reference_csr gets the texts in that order."""
    vocabulary, indptr, doc_pos, weights = reference_csr({k: oracle_tokenize(texts[k]) for k in sorted(texts)})
    assert list(retriever.vocabulary.items()) == list(vocabulary.items())
    for got, want in ((retriever.indptr, indptr), (retriever.doc_pos, doc_pos), (retriever.weights, weights)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello, World-wide!") == ["hello", "world", "wide"]

    def test_digits_kept(self):
        assert tokenize("BM25 k1=1.2") == ["bm25", "k1", "1", "2"]

    def test_underscore_splits(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_unicode_words(self):
        assert tokenize("Café déjà-vu") == ["café", "déjà", "vu"]

    def test_empty(self):
        assert tokenize("...") == []

    @given(st.text(max_size=80))
    def test_matches_character_walk_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=80))
    def test_ascii_text_matches_character_walk_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_character_between_letters(self, code):
        text = f"ab{chr(code)}CD{chr(code)}{chr(code)}9e{chr(code)}"
        assert tokenize(text) == oracle_tokenize(text)

    @pytest.mark.parametrize(
        "text, tokens, regex",
        [
            ("Straße_x", ["straße", "x"], True),
            ("İx", ["i", "x"], True),
            ("Strasse_x", ["strasse", "x"], False),
        ],
    )
    def test_only_non_ascii_text_takes_the_regex(self, monkeypatch, text, tokens, regex):
        real = smr.retrieval._TOKEN_RE
        calls = []

        class Spy:
            def findall(self, lowered):
                calls.append(lowered)
                return real.findall(lowered)

        monkeypatch.setattr(smr.retrieval, "_TOKEN_RE", Spy())
        assert tokenize(text) == tokens == oracle_tokenize(text)
        assert bool(calls) is regex


class TestBuildIndex:
    def test_statistics(self):
        texts = {"a": "x y", "b": "x y z w", "c": "p q r s t u"}
        doc_store = build_index(docs_from(texts))
        assert list(doc_store) == ["a", "b", "c"]
        assert mean_length(texts) == 4.0
        # The weights depend on the mean length, so this pins it too.
        assert_csr_matches_reference(Bm25Retriever(doc_store), texts)

    def test_duplicate_doc_id_named_in_error(self):
        with pytest.raises(CorpusError, match="dup1"):
            build_index(docs_from({"x": "a"}) + [Document("dup1", "b"), Document("dup1", "c")])

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            build_index([])

    def test_empty_doc_store_has_no_postings(self):
        with pytest.raises(CorpusError, match="^corpus is empty$"):
            Bm25Retriever({})

    def test_zero_token_document_allowed(self):
        retriever = bm25({"a": "...", "b": "word"})
        assert retriever.doc_pos.tolist() == [1]
        assert_csr_matches_reference(retriever, {"a": "...", "b": "word"})

    def test_postings_carry_term_frequencies(self):
        retriever = bm25({"a": "x x y", "b": "x"})
        row = retriever.vocabulary["x"]
        assert retriever.doc_pos[retriever.indptr[row]:retriever.indptr[row + 1]].tolist() == [0, 1]
        # reference_csr derives the weights from the tfs 2 and 1.
        assert_csr_matches_reference(retriever, {"a": "x x y", "b": "x"})

    def test_mixed_case_document_found_by_mixed_case_query(self):
        retriever = bm25({"d1": "Apple pie", "d2": "banana split"})
        assert retriever.search("Apple", 5).entries == ("d1",)
        assert retriever.search("PIE and APPLE", 5).entries == ("d1",)
        # Documents and queries share one tokenizer: build_index takes no other.
        with pytest.raises(TypeError):
            build_index(docs_from({"d1": "Apple pie"}), tokenizer=str.split)


class TestBm25Score:
    def test_hand_evaluated_three_doc_corpus(self):
        # d1 holds one of two 'a' postings; its length equals the average,
        # so the normalizer is exactly k1 + 1 and the score reduces to the
        # bare idf: ln(1 + (3 - 2 + 0.5) / (2 + 0.5)) = ln(1.6).
        retriever = bm25({"d1": "a b", "d2": "a a c", "d3": "d"})
        expected_d1 = math.log(1.6)
        # d2: tf=2, length 3, avg 2: 2*2.2 / (2 + 1.2*(0.25 + 0.75*1.5)) = 4.4/3.65
        expected_d2 = math.log(1.6) * 4.4 / 3.65
        assert bm25_score(retriever, ["a"], "d1") == pytest.approx(expected_d1, abs=1e-9)
        assert bm25_score(retriever, ["a"], "d2") == pytest.approx(expected_d2, abs=1e-9)
        assert bm25_score(retriever, ["a"], "d3") == 0.0

    def test_agrees_with_oracle(self):
        texts = {"d1": "a b", "d2": "a a c", "d3": "d"}
        retriever = bm25(texts)
        oracle = oracle_bm25_scores({k: oracle_tokenize(v) for k, v in texts.items()}, ["a"])
        for doc_id in texts:
            assert bm25_score(retriever, ["a"], doc_id) == pytest.approx(oracle[doc_id], abs=1e-9)

    def test_unknown_doc_id(self):
        retriever = bm25({"d1": "a"})
        with pytest.raises(UnknownDocumentError, match="nope"):
            bm25_score(retriever, ["a"], "nope")

    def test_unseen_term_contributes_zero(self):
        retriever = bm25({"d1": "a b", "d2": "c"})
        base = bm25_score(retriever, ["a"], "d1")
        assert bm25_score(retriever, ["a", "zzz"], "d1") == pytest.approx(base)

    def test_repeated_query_terms_accumulate(self):
        retriever = bm25({"d1": "a b", "d2": "c"})
        single = bm25_score(retriever, ["a"], "d1")
        double = bm25_score(retriever, ["a", "a"], "d1")
        assert double == pytest.approx(2 * single)


class TestSearch:
    def test_matches_oracle_ranking(self):
        texts = {
            "d1": "apple banana apple",
            "d2": "banana cherry",
            "d3": "apple cherry date elderberry",
            "d4": "fig grape",
            "d5": "apple apple apple banana",
        }
        retriever = bm25(texts)
        expected = oracle_bm25_ranking(
            {k: oracle_tokenize(v) for k, v in texts.items()}, ["apple", "banana"], 10
        )
        assert list(retriever.search("apple banana", 10).entries) == expected

    def test_zero_score_documents_excluded(self):
        retriever = bm25({"d1": "apple", "d2": "banana", "d3": "cherry"})
        assert list(retriever.search("apple", 10).entries) == ["d1"]

    def test_no_padding_when_fewer_matches_than_k(self):
        retriever = bm25({"d1": "apple", "d2": "banana"})
        result = retriever.search("apple", 5)
        assert len(result) == 1

    def test_ties_break_by_ascending_doc_id(self):
        retriever = bm25({"zz": "same text", "aa": "same text", "mm": "same text"})
        assert list(retriever.search("same", 10).entries) == ["aa", "mm", "zz"]

    def test_k_limits_results(self):
        texts = {f"d{i}": "common word" + " filler" * i for i in range(8)}
        retriever = bm25(texts)
        assert len(retriever.search("common", 3)) == 3

    def test_k_must_be_positive(self):
        retriever = bm25({"d1": "a"})
        with pytest.raises(ValueError):
            retriever.search("a", 0)

    def test_no_match_returns_empty(self):
        retriever = bm25({"d1": "apple"})
        assert list(retriever.search("zebra", 4).entries) == []


@st.composite
def corpus_and_term(draw):
    n_docs = draw(st.integers(min_value=2, max_value=6))
    length = draw(st.integers(min_value=1, max_value=6))
    vocab = ["t", "u", "v", "w"]
    texts = {}
    for i in range(n_docs):
        words = draw(st.lists(st.sampled_from(vocab), min_size=length, max_size=length))
        texts[f"d{i}"] = " ".join(words)
    return texts, "t"


@given(corpus_and_term(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_membership_unchanged_by_term_free_document(data, extra_len):
    """Adding a doc without the query term never changes which prior docs match."""
    texts, term = data
    before = bm25(texts).search(term, 50)
    grown = dict(texts)
    grown["zzz-new"] = " ".join(["qq"] * extra_len)
    after = bm25(grown).search(term, 50)
    assert set(before.entries) == set(after.entries) - {"zzz-new"}
    assert "zzz-new" not in after.entries  # it cannot match the term


@given(corpus_and_term())
@settings(max_examples=60)
def test_order_preserved_when_added_doc_keeps_average_length(data):
    """With df and avg length both unchanged, prior scores scale uniformly.

    The added document has exactly the average length, so per-document
    normalizers are untouched and only the shared idf moves: relative
    order among prior docs must be identical.
    """
    texts, term = data
    avg = mean_length(texts)
    if avg != int(avg) or int(avg) == 0:
        return  # only integral averages can be preserved exactly by one doc
    before = bm25(texts).search(term, 50)
    grown = dict(texts)
    grown["zzz-new"] = " ".join(["qq"] * int(avg))
    after = bm25(grown).search(term, 50)
    assert list(before.entries) == [d for d in after.entries if d != "zzz-new"]


def _near_tie(scores: dict[str, float], inputs) -> bool:
    """Whether two documents with different scoring inputs score within 1e-9.

    Such scores may be equal in exact arithmetic and differ only in the last
    bits, which depend on the order of the operations; an oracle computed in
    another order can then rank the pair the other way.
    """
    ordered = sorted(scores, key=scores.__getitem__)
    return any(
        scores[b] - scores[a] <= 1e-9 and inputs(a) != inputs(b) for a, b in zip(ordered, ordered[1:])
    )


@st.composite
def shuffled_corpus_and_query(draw):
    """A small corpus whose ids are out of sorted order, and a query with
    repeated terms and a term no document holds."""
    vocab = ["a", "b", "c", "d", "e"]
    ids = draw(st.lists(st.text(alphabet="pqrs19", min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
    ids = sorted(ids, reverse=True) if draw(st.booleans()) else draw(st.permutations(ids))
    texts = {doc_id: " ".join(draw(st.lists(st.sampled_from(vocab), max_size=8))) for doc_id in ids}
    query = draw(st.lists(st.sampled_from(vocab + ["unknown"]), min_size=1, max_size=6))
    return texts, query


@settings(max_examples=150)
@given(shuffled_corpus_and_query())
@example(({"1": ""}, ["a"]))  # no document has a token
@example(({"1": "a"}, ["a"]))
def test_scores_bit_identical_to_posting_walk_and_ranking_to_oracle(data):
    texts, query = data
    retriever = bm25(texts)
    doc_tokens = {doc_id: oracle_tokenize(text) for doc_id, text in texts.items()}
    reference = reference_bm25_sums(doc_tokens, query)
    for doc_id in texts:
        assert bm25_score(retriever, query, doc_id) == reference.get(doc_id, 0.0)
    exact = sorted(reference, key=lambda d: (-reference[d], d))
    noisy = _near_tie(
        oracle_bm25_scores(doc_tokens, query),
        lambda d: (len(doc_tokens[d]), tuple(doc_tokens[d].count(term) for term in query)),
    )
    for k in sorted({1, 3, len(texts)}):
        ranked = list(retriever.search(" ".join(query), k).entries)
        assert ranked == exact[:k]
        if not noisy:
            assert ranked == oracle_bm25_ranking(doc_tokens, query, k)


@st.composite
def mixed_corpus(draw):
    """Ids out of sorted order; texts of ASCII and non-ASCII words and
    separators, with repeated terms and empty documents."""
    words = ["a", "a", "B", "x9", "a_b", "\t", "-", "É", "straße", "İ", "ﬁ", "٣", "漢", "𝔘", "\x85"]
    ids = draw(st.lists(st.text(alphabet="pqrs19", min_size=1, max_size=3), min_size=1, max_size=10, unique=True))
    ids = sorted(ids, reverse=True) if draw(st.booleans()) else draw(st.permutations(ids))
    return {doc_id: " ".join(draw(st.lists(st.sampled_from(words), max_size=8))) for doc_id in ids}


@settings(max_examples=200)
@given(mixed_corpus())
@example({"1": ""})  # no document has a token
@example({"1": "a"})
def test_index_arrays_bit_identical_to_reference_csr(texts):
    assert_csr_matches_reference(bm25(texts), texts)


def seeded_texts() -> dict[str, str]:
    """2,000 documents of 20-200 words drawn from a Zipf-like vocabulary of
    20,000 words, so a few terms have long postings and most have short ones."""
    rng = random.Random(0)
    vocab = [f"w{rank}" for rank in range(20_000)]
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    return {f"d{i}": " ".join(rng.choices(vocab, weights, k=rng.randint(20, 200))) for i in range(2000)}


def bm25_build_memory(texts: dict[str, str]) -> tuple[int, int]:
    """tracemalloc's (peak, retained) bytes over building a Bm25Retriever on texts."""
    doc_store = build_index(docs_from(texts))
    tracemalloc.start()
    try:
        retriever = Bm25Retriever(doc_store)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del retriever
    return peak, retained


def test_index_build_peaks_under_twice_what_it_keeps():
    """The arrays are built in place: the build's peak is at most twice what the retriever keeps."""
    peak, retained = bm25_build_memory(seeded_texts())
    assert peak <= 2 * retained, f"peak {peak / 1e6:.1f} MB, retained {retained / 1e6:.1f} MB"


class TestDense:
    def test_identity_query_ranks_first_with_similarity_one(self):
        store = DenseStore(ids=("d1", "d2"), matrix=[[1.0, 0.0], [0.0, 1.0]])
        result = dense_search(store, [1.0, 0.0], 2)
        assert list(result.entries) == ["d1", "d2"]

    def test_orthogonal_vector_scores_zero_but_still_ranks(self):
        store = DenseStore(ids=("d1",), matrix=[[1.0, 0.0]])
        result = dense_search(store, [0.0, 1.0], 1)
        assert list(result.entries) == ["d1"]

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(7)
        vectors = {f"d{i}": [rng.gauss(0, 1) for _ in range(4)] for i in range(5)}
        store = DenseStore(ids=tuple(vectors), matrix=list(vectors.values()))
        query = [rng.gauss(0, 1) for _ in range(4)]
        expected = oracle_dense_ranking(vectors, query, 3)
        assert list(dense_search(store, query, 3).entries) == expected

    def test_dimension_mismatch_rejected(self):
        store = DenseStore(ids=("d1",), matrix=[[1.0, 0.0]])
        with pytest.raises(ValueError, match="shape"):
            dense_search(store, [1.0, 0.0, 0.0], 1)

    def test_non_finite_query_rejected(self):
        store = DenseStore(ids=("d1",), matrix=[[1.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            dense_search(store, [float("nan"), 1.0], 1)

    def test_ties_break_by_doc_id(self):
        store = DenseStore(ids=("b", "a"), matrix=[[1.0, 0.0], [1.0, 0.0]])
        assert list(dense_search(store, [1.0, 0.0], 2).entries) == ["a", "b"]

    def test_build_normalizes(self):
        rows = np.asfortranarray([[3.0, 4.0], [2.0, 0.0]])
        store = DenseStore(ids=("d1", "d2"), matrix=rows)
        assert store.matrix.tolist() == [[0.6, 0.8], [1.0, 0.0]]
        assert store.matrix.flags["C_CONTIGUOUS"] and store.matrix.dtype == np.float64
        assert store.matrix32.tolist() == store.matrix.astype(np.float32).tolist()
        assert rows.tolist() == [[3.0, 4.0], [2.0, 0.0]]  # the caller's rows are left as they were

    def test_zero_vector_rejected(self):
        with pytest.raises(RowError, match="^vector for 'd2' is all zeros and cannot be normalized$") as caught:
            DenseStore(ids=("d1", "d2"), matrix=[[1.0, 0.0], [0.0, 0.0]])
        assert caught.value.row == 1

    @pytest.mark.parametrize(
        "row, what",
        [
            ([math.nan, 1.0], "holds a non-finite value"),
            ([1.0, -math.inf], "holds a non-finite value"),
            ([1e200, 1e200], "has a norm too large to normalize"),
            ([1e-160, 0.0], "has a norm too small to normalize"),
            ([1e-200, 0.0], "has a norm too small to normalize"),
        ],
        ids=["nan", "infinity", "overflowing-square", "subnormal-square", "underflowing-square"],
    )
    def test_store_rejects_rows_it_cannot_normalize(self, row, what):
        # A square below the smallest normal float keeps too few bits for the
        # row to come out of the division with unit norm.
        with pytest.raises(RowError, match=f"^vector for 'd3' {what}$") as caught:
            DenseStore(ids=("d1", "d2", "d3"), matrix=[[1.0, 0.0], [0.0, 1.0], row])
        assert caught.value.row == 2

    def test_store_sorts_its_ids_and_names_a_bad_row_as_given(self):
        store = DenseStore(ids=("c", "a", "b"), matrix=[[3.0, 0.0], [0.0, 2.0], [0.0, -5.0]])
        assert store.ids == ("a", "b", "c")
        assert store.matrix.tolist() == [[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]
        with pytest.raises(RowError, match="^vector for 'a' is all zeros") as caught:
            DenseStore(ids=("c", "b", "a"), matrix=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert caught.value.row == 2

    def test_store_keeps_the_smallest_accurate_norm(self):
        store = DenseStore(ids=("d1",), matrix=[[2.0**-511, 0.0]])
        assert store.matrix.tolist() == [[1.0, 0.0]]

    def test_identical_vectors_come_back_adjacent_by_doc_id(self):
        # Copies of one Gaussian vector at scattered rows must score exactly
        # alike, so they rank together in ascending doc_id order; a BLAS
        # matrix-vector product can sum identical rows differently.
        rng = np.random.default_rng(11)
        for trial in range(300):
            n, dim = int(rng.integers(2, 601)), int(rng.integers(1, 401))
            matrix = rng.standard_normal((n, dim))
            copies = rng.choice(n, size=int(rng.integers(2, min(n, 6) + 1)), replace=False)
            matrix[copies] = rng.standard_normal(dim)
            ids = [f"d{i:03d}" for i in rng.permutation(n)]
            store = DenseStore(ids=tuple(ids), matrix=matrix)
            ranked = list(dense_search(store, matrix[copies[0]], n).entries)
            units = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
            # With dim 1 every row of the same sign is a copy too.
            tied = sorted(ids[p] for p in np.flatnonzero(np.isclose(units, units[copies[0]]).all(axis=1)))
            start = ranked.index(tied[0])
            assert ranked[start : start + len(tied)] == tied, f"trial {trial}: n={n} dim={dim}"
            # k < n takes the float32 scan; cut inside, at the end of and
            # past the tied block, it must return a prefix of that ranking.
            for k in {start + len(tied) - 1, start + len(tied), int(rng.integers(1, n + 1))}:
                assert list(dense_search(store, matrix[copies[0]], k).entries) == ranked[:k], (
                    f"trial {trial}: n={n} dim={dim} k={k}"
                )

    def test_rows_one_ulp_apart_rank_by_their_float64_scores(self):
        # Rows 0-4 are (x, sqrt(1 - x**2)) with x stepping 1 ulp at a time up
        # from 0.6; x is their score and float32 cannot tell them apart.
        # Division by their norms leaves them as they are.  Their ids ascend
        # with their scores, so ranking by the float32 scan and then by doc_id
        # would give the reverse of the float64 order.
        near, x = [], 0.6
        for _ in range(5):
            near.append([x, math.sqrt(1.0 - x * x)])
            x = float(np.nextafter(x, 1.0))
        # Rows far below them, from the spread angles the store keeps as they are.
        far = [[-c, math.sqrt(1.0 - c * c)] for c in np.linspace(0.1, 0.99, 40).tolist()]
        far = [row for row in far if DenseStore(ids=("f",), matrix=[row]).matrix.tolist() == [row]][:20]
        assert len(far) == 20
        matrix = np.array(near + far)
        ids = tuple(f"n{i}" for i in range(5)) + tuple(f"f{i:02d}" for i in range(20))
        store = DenseStore(ids=ids, matrix=matrix)
        # The store holds the rows in id order: the f rows, then the n rows.
        assert np.array_equal(store.matrix, matrix[sorted(range(len(ids)), key=ids.__getitem__)])
        query = np.array([1.0, 0.0])
        approx = np.einsum("ij,j->i", store.matrix32[-5:], query.astype(np.float32))
        assert len(set(approx.tolist())) == 1
        assert exhaustive_dense_ranking(ids, matrix, query, 5) == ["n4", "n3", "n2", "n1", "n0"]
        for k in range(1, 8):
            assert list(dense_search(store, query, k).entries) == exhaustive_dense_ranking(ids, matrix, query, k)

    def test_gathered_rows_score_as_in_the_full_matrix(self):
        # The rescore relies on a row's einsum not depending on where the
        # row sits: a gathered copy must give the full-matrix float exactly.
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3, 7, 8, 15, 16, 17, 255, 256, 257):
            matrix = rng.standard_normal((300, dim))
            store = DenseStore(ids=tuple(f"d{i}" for i in range(300)), matrix=matrix)
            q = rng.standard_normal(dim)
            full = np.einsum("ij,j->i", store.matrix, q)
            for size in (1, 2, 3, 25, 299):
                positions = np.sort(rng.choice(300, size=size, replace=False))
                gathered = np.einsum("ij,j->i", store.matrix[positions], q)
                assert np.array_equal(gathered, full[positions]), f"dim={dim} size={size}"


@settings(max_examples=150)
@given(
    st.integers(1, 6).flatmap(
        lambda dim: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any), min_size=1, max_size=15),
            st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_dense_search_matches_oracle_on_integer_vectors(data, rnd):
    rows, query = data
    ids = [f"d{i:02d}" for i in range(len(rows))]
    rnd.shuffle(ids)
    vectors = {doc_id: [float(x) for x in row] for doc_id, row in zip(ids, rows)}
    store = DenseStore(ids=tuple(vectors), matrix=list(vectors.values()))
    query = [float(x) for x in query]
    cosines = {  # up to the query's norm, which every document shares
        doc_id: math.fsum(a * b for a, b in zip(vec, query)) / math.sqrt(math.fsum(a * a for a in vec))
        for doc_id, vec in vectors.items()
    }
    if _near_tie(cosines, vectors.__getitem__):
        return
    for k in sorted({1, 3, len(rows)}):
        assert list(dense_search(store, query, k).entries) == oracle_dense_ranking(vectors, query, k)


@settings(max_examples=300)
@given(
    st.integers(1, 24),
    st.integers(1, 60),
    st.integers(1, 70),
    st.sampled_from(["gaussian", "integers", 1e-9, 1e-7, 1e-5]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_dense_search_equals_exhaustive_einsum_ranking(dim, n, k, rows, zero_query, seed):
    # Odd and even dims, k below and at or above n, a zero query, exact
    # ties (small integers) and rows spread by a small scale around one
    # vector, with the query among them, where the float32 scan misorders
    # rows.
    rng = np.random.default_rng(seed)
    if rows == "integers":
        matrix = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
        matrix[~matrix.any(axis=1), 0] = 1.0
    else:
        matrix = rng.standard_normal((n, dim))
        if rows != "gaussian":
            matrix = matrix[0] + rows * matrix
    ids = [f"d{i:02d}" for i in rng.permutation(n)]
    store = DenseStore(ids=tuple(ids), matrix=matrix)
    scale = rows if isinstance(rows, float) else 1.0
    query = np.zeros(dim) if zero_query else matrix[0] + scale * rng.standard_normal(dim)
    expected = exhaustive_dense_ranking(store.ids, store.matrix, query, k)
    assert list(dense_search(store, query, k).entries) == expected
    assert list(dense_search(store, iter(query.tolist()), k).entries) == expected


class TestLoaders:
    def test_corpus_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "d1", "text": "hello"}\n\n{"doc_id": "d2", "text": "bye"}\n')
        docs = load_corpus(str(path))
        assert [d.doc_id for d in docs] == ["d1", "d2"]

    def test_corpus_error_cites_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "d1", "text": "ok"}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(str(path))

    def test_corpus_missing_field_cites_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "d1"}\n')
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(str(path))

    def test_corpus_duplicate_doc_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "d1", "text": "a"}\n\n{"doc_id": "d2", "text": "b"}\n{"doc_id": "d1", "text": "c"}\n')
        with pytest.raises(CorpusError) as caught:
            load_corpus(str(path))
        assert str(caught.value) == f"{path}: line 4: duplicate doc_id 'd1'"

    def test_empty_corpus_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n")
        with pytest.raises(CorpusError, match="no documents"):
            load_corpus(str(path))

    def test_embeddings_loader(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"doc_id": "d1", "vector": [1.0, 0.0]}\n{"doc_id": "d2", "vector": [0.0, 2.0]}\n'
        )
        store = load_dense_store(str(path))
        assert store.matrix.shape == (2, 2) and set(store.ids) == {"d1", "d2"}

    def test_embeddings_error_cites_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"doc_id": "d1"}\n')
        with pytest.raises(CorpusError, match="line 1"):
            load_dense_store(str(path))

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"doc_id": "d1", "vector": [0.0, 1.0]}', "line 3: duplicate doc_id 'd1'"),
            ('{"doc_id": "d2", "vector": [1.0, 0.0, 0.0]}', "line 3: vector has 3 dimensions, expected 2"),
            ('{"doc_id": "d2", "vector": [0.0, 0]}', "line 3: vector for 'd2' is all zeros and cannot be normalized"),
            ('{"doc_id": "d2", "vector": [NaN, 1.0]}', "line 3: vector for 'd2' holds a non-finite value"),
            ('{"doc_id": "d2", "vector": [1.0, -Infinity]}', "line 3: vector for 'd2' holds a non-finite value"),
            ('{"doc_id": "d2", "vector": [1e200, 1e200]}', "line 3: vector for 'd2' has a norm too large to normalize"),
            ('{"doc_id": "d2", "vector": [1e-200, 0.0]}', "line 3: vector for 'd2' has a norm too small to normalize"),
            ('{"doc_id": "d2", "vector": [null, 1.0]}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": ["0.6", "0.8"]}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": [true, false]}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": [true, 0.5]}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": [0.5, false]}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": [true, 1]}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": [1, 18446744073709551616]}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": [[1.0, 0.0]]}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": [[1.0], [0.0, 1.0]]}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": "0.6 0.8"}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": "d2", "vector": []}', "line 3: vector must be a non-empty list of numbers"),
            ('{"doc_id": 2, "vector": [1.0, 0.0]}', "line 3: doc_id must be a string"),
        ],
        ids=[
            "repeated-id", "dimension-mismatch", "zero", "nan", "infinity", "huge-norm", "tiny-norm", "null",
            "strings", "booleans", "boolean-among-floats", "false-among-floats", "boolean-among-integers",
            "integer-past-64-bits", "nested", "ragged", "non-list", "empty", "integer-id",
        ],
    )
    def test_embeddings_errors_name_file_and_line(self, tmp_path, line, message):
        # The bad record is the second vector, on line 3, so its row (1) and
        # its line differ.
        path = tmp_path / "emb.jsonl"
        path.write_text(f'{{"doc_id": "d1", "vector": [1.0, 0.0]}}\n\n{line}\n{{"doc_id": "d9", "vector": [1, 1]}}\n')
        with pytest.raises(CorpusError) as caught:
            load_dense_store(str(path))
        assert str(caught.value) == f"{path}: {message}"

    def test_bad_row_named_by_its_line_when_ids_are_out_of_order(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"doc_id": "d9", "vector": [1, 0]}\n{"doc_id": "d5", "vector": [0, 1]}\n{"doc_id": "d1", "vector": [0, 0]}\n'
        )
        with pytest.raises(CorpusError) as caught:
            load_dense_store(str(path))
        assert str(caught.value) == f"{path}: line 3: vector for 'd1' is all zeros and cannot be normalized"

    def test_empty_embeddings_file_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text("\n \n")
        with pytest.raises(CorpusError) as caught:
            load_dense_store(str(path))
        assert str(caught.value) == f"{path}: embeddings file contains no vectors"

    @settings(max_examples=200)
    @given(
        st.integers(1, 5).flatmap(
            lambda dim: st.lists(
                st.lists(
                    st.one_of(
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.integers(-(2**63), 2**64 - 1),
                        st.sampled_from([0, 0.0, -0.0, 1e-160, 5e-324]),
                    ),
                    min_size=dim,
                    max_size=dim,
                ),
                min_size=1,
                max_size=8,
            )
        ),
        st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_loaded_file_equals_store_built_from_its_rows(self, tmp_path_factory, rows, blank_before):
        # Integers and floats as JSON writes them, with blank lines before some
        # records; a row the store rejects must be named by its line.
        path = tmp_path_factory.mktemp("emb") / "emb.jsonl"
        ids = tuple(f"d{i}" for i in range(len(rows)))
        text, lines = "", []
        for doc_id, row, blank in zip(ids, rows, blank_before):
            text += "\n" * blank
            lines.append(text.count("\n") + 1)
            text += json.dumps({"doc_id": doc_id, "vector": row}) + "\n"
        path.write_text(text)
        try:
            expected = DenseStore(ids=ids, matrix=np.array(rows, dtype=np.float64))
        except RowError as exc:
            with pytest.raises(CorpusError) as caught:
                load_dense_store(str(path))
            assert str(caught.value) == f"{path}: line {lines[exc.row]}: {exc}"
            return
        loaded = load_dense_store(str(path))
        assert loaded.ids == expected.ids
        assert loaded.matrix.tobytes() == expected.matrix.tobytes()
        assert loaded.matrix32.tobytes() == expected.matrix32.tobytes()

    def test_index_save_load_round_trip(self, tmp_path):
        texts = {"d1": "apple banana", "d2": "banana cherry", "d3": "date"}
        path = tmp_path / "index.json"
        save_index(build_index(docs_from(texts)), str(path))
        loaded = Bm25Retriever(load_index(str(path)))
        assert_csr_matches_reference(loaded, texts)
        assert list(loaded.search("banana", 10).entries) == list(bm25(texts).search("banana", 10).entries)

    def test_load_index_returns_build_index_documents(self, tmp_path):
        built = build_index(docs_from({"d3": "date", "d1": 'say "hi"\nto Zoë', "d2": ""}))
        path = tmp_path / "index.json"
        save_index(built, str(path))
        loaded = load_index(str(path))
        assert loaded == built
        assert list(loaded) == ["d3", "d1", "d2"]

    @pytest.mark.parametrize(
        "loader, kind",
        [(load_corpus, "corpus"), (load_dense_store, "embeddings"), (load_index, "corpus")],
    )
    def test_missing_file_named(self, tmp_path, loader, kind):
        path = tmp_path / "absent.jsonl"
        with pytest.raises(CorpusError, match=f"^{kind} file not found: .*absent\\.jsonl$"):
            loader(str(path))

    def test_saved_index_holds_only_documents(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index(docs_from({"d1": 'say "hi"\nto Zoë', "d2": "apple"})), str(path))
        assert path.read_bytes() == (
            '{"doc_id":"d1","text":"say \\"hi\\"\\nto Zoë"}\n{"doc_id":"d2","text":"apple"}\n'
        ).encode("utf-8")
        # Lines are encoded as run and trace lines are, and read back whole.
        texts = {"d1": "tab\tnul\x00 back\\slash", "d\u00e9\u2028": "\U0001f600 \x7f \u2029", "d3": ""}
        save_index(build_index(docs_from(texts)), str(path))
        expected = "".join(_dump({"doc_id": k, "text": v}) + "\n" for k, v in texts.items())
        assert path.read_bytes() == expected.encode("utf-8")
        assert load_index(str(path)) == build_index(docs_from(texts))

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([{"doc_id": "d1", "text": "a"}, {"doc_id": "d1", "text": "b"}], "line 2: duplicate doc_id 'd1'"),
            ([{"doc_id": "d1", "text": 5}], "line 1: doc_id and text must be strings"),
            ([{"doc_id": "d1", "text": "a"}, ["d2", "b"]], "line 2: expected an object with doc_id and text"),
            ([{"doc_id": "", "text": "a"}], "line 1: doc_id must be a non-empty string"),
            ([], "corpus file contains no documents"),
        ],
        ids=["duplicate-id", "non-string-text", "non-object-entry", "empty-id", "no-docs"],
    )
    def test_bad_index_docs_named(self, tmp_path, lines, message):
        path = tmp_path / "index.json"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(CorpusError) as caught:
            load_index(str(path))
        assert str(caught.value) == f"{path}: {message}"


class TestRetrieverAdapters:
    def test_bm25_adapter(self):
        retriever = bm25({"d1": "apple", "d2": "banana"})
        assert list(retriever.search("apple", 5).entries) == ["d1"]
        assert retriever.doc_store["d2"].text == "banana"

    def test_dense_adapter_embeds_queries(self):
        store = DenseStore(ids=("d1", "d2"), matrix=[[1.0, 0.0], [0.0, 1.0]])
        doc_store = {d.doc_id: d for d in docs_from({"d1": "one", "d2": "two"})}
        retriever = DenseRetriever(store, doc_store, embed=lambda text: [0.0, 1.0])
        assert list(retriever.search("anything", 1).entries) == ["d2"]

    def test_dense_adapter_requires_texts_for_all_vectors(self):
        store = DenseStore(ids=("d1",), matrix=[[1.0, 0.0]])
        with pytest.raises(CorpusError, match="d1"):
            DenseRetriever(store, {}, embed=lambda text: [1.0, 0.0])
