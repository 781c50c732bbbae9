from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smr.retrieval
from smr.core import Document
from smr.errors import CorpusError, UnknownDocumentError
from smr.retrieval import (
    Bm25Retriever,
    DenseRetriever,
    DenseStore,
    build_dense_store,
    build_index,
    bm25_score,
    dense_search,
    load_corpus,
    load_dense_store,
    load_index,
    save_index,
    search,
    tokenize,
)

from oracles import (
    oracle_bm25_ranking,
    oracle_bm25_scores,
    oracle_dense_ranking,
    oracle_tokenize,
    reference_bm25_sums,
    reference_csr,
)


def docs_from(texts: dict[str, str]) -> list[Document]:
    return [Document(doc_id=doc_id, text=text) for doc_id, text in texts.items()]


def assert_csr_matches_reference(index, texts: dict[str, str]) -> None:
    """The index's arrays equal reference_csr's bit for bit, dtypes and vocabulary order included."""
    vocabulary, indptr, doc_pos, weights = reference_csr({k: oracle_tokenize(v) for k, v in texts.items()})
    assert list(index.vocabulary.items()) == list(vocabulary.items())
    for got, want in ((index.indptr, indptr), (index.doc_pos, doc_pos), (index.weights, weights)):
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
        index = build_index(docs_from({"a": "x y", "b": "x y z w", "c": "p q r s t u"}))
        assert index.doc_count == 3
        assert index.avg_doc_length == pytest.approx(4.0)
        assert_csr_matches_reference(index, {"a": "x y", "b": "x y z w", "c": "p q r s t u"})

    def test_duplicate_doc_id_named_in_error(self):
        with pytest.raises(CorpusError, match="dup1"):
            build_index(docs_from({"x": "a"}) + [Document("dup1", "b"), Document("dup1", "c")])

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            build_index([])

    def test_zero_token_document_allowed(self):
        index = build_index(docs_from({"a": "...", "b": "word"}))
        assert index.avg_doc_length == 0.5
        assert index.doc_pos.tolist() == [1]
        assert_csr_matches_reference(index, {"a": "...", "b": "word"})

    def test_postings_carry_term_frequencies(self):
        index = build_index(docs_from({"a": "x x y", "b": "x"}))
        row = index.vocabulary["x"]
        assert index.doc_pos[index.indptr[row]:index.indptr[row + 1]].tolist() == [0, 1]
        # reference_csr derives the weights from the tfs 2 and 1.
        assert_csr_matches_reference(index, {"a": "x x y", "b": "x"})

    def test_mixed_case_document_found_by_mixed_case_query(self):
        index = build_index(docs_from({"d1": "Apple pie", "d2": "banana split"}))
        assert search(index, "Apple", 5).entries == ("d1",)
        assert search(index, "PIE and APPLE", 5).entries == ("d1",)
        # Documents and queries share one tokenizer: build_index takes no other.
        with pytest.raises(TypeError):
            build_index(docs_from({"d1": "Apple pie"}), tokenizer=str.split)


class TestBm25Score:
    def test_hand_evaluated_three_doc_corpus(self):
        # d1 holds one of two 'a' postings; its length equals the average,
        # so the normalizer is exactly k1 + 1 and the score reduces to the
        # bare idf: ln(1 + (3 - 2 + 0.5) / (2 + 0.5)) = ln(1.6).
        index = build_index(docs_from({"d1": "a b", "d2": "a a c", "d3": "d"}))
        expected_d1 = math.log(1.6)
        # d2: tf=2, length 3, avg 2: 2*2.2 / (2 + 1.2*(0.25 + 0.75*1.5)) = 4.4/3.65
        expected_d2 = math.log(1.6) * 4.4 / 3.65
        assert bm25_score(index, ["a"], "d1") == pytest.approx(expected_d1, abs=1e-9)
        assert bm25_score(index, ["a"], "d2") == pytest.approx(expected_d2, abs=1e-9)
        assert bm25_score(index, ["a"], "d3") == 0.0

    def test_agrees_with_oracle(self):
        texts = {"d1": "a b", "d2": "a a c", "d3": "d"}
        index = build_index(docs_from(texts))
        oracle = oracle_bm25_scores({k: oracle_tokenize(v) for k, v in texts.items()}, ["a"])
        for doc_id in texts:
            assert bm25_score(index, ["a"], doc_id) == pytest.approx(oracle[doc_id], abs=1e-9)

    def test_unknown_doc_id(self):
        index = build_index(docs_from({"d1": "a"}))
        with pytest.raises(UnknownDocumentError, match="nope"):
            bm25_score(index, ["a"], "nope")

    def test_unseen_term_contributes_zero(self):
        index = build_index(docs_from({"d1": "a b", "d2": "c"}))
        base = bm25_score(index, ["a"], "d1")
        assert bm25_score(index, ["a", "zzz"], "d1") == pytest.approx(base)

    def test_repeated_query_terms_accumulate(self):
        index = build_index(docs_from({"d1": "a b", "d2": "c"}))
        single = bm25_score(index, ["a"], "d1")
        double = bm25_score(index, ["a", "a"], "d1")
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
        index = build_index(docs_from(texts))
        expected = oracle_bm25_ranking(
            {k: oracle_tokenize(v) for k, v in texts.items()}, ["apple", "banana"], 10
        )
        assert list(search(index, "apple banana", 10).entries) == expected

    def test_zero_score_documents_excluded(self):
        index = build_index(docs_from({"d1": "apple", "d2": "banana", "d3": "cherry"}))
        assert list(search(index, "apple", 10).entries) == ["d1"]

    def test_no_padding_when_fewer_matches_than_k(self):
        index = build_index(docs_from({"d1": "apple", "d2": "banana"}))
        result = search(index, "apple", 5)
        assert len(result) == 1

    def test_ties_break_by_ascending_doc_id(self):
        index = build_index(docs_from({"zz": "same text", "aa": "same text", "mm": "same text"}))
        assert list(search(index, "same", 10).entries) == ["aa", "mm", "zz"]

    def test_k_limits_results(self):
        texts = {f"d{i}": "common word" + " filler" * i for i in range(8)}
        index = build_index(docs_from(texts))
        assert len(search(index, "common", 3)) == 3

    def test_k_must_be_positive(self):
        index = build_index(docs_from({"d1": "a"}))
        with pytest.raises(ValueError):
            search(index, "a", 0)

    def test_no_match_returns_empty(self):
        index = build_index(docs_from({"d1": "apple"}))
        assert list(search(index, "zebra", 4).entries) == []


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
    before = search(build_index(docs_from(texts)), term, 50)
    grown = dict(texts)
    grown["zzz-new"] = " ".join(["qq"] * extra_len)
    after = search(build_index(docs_from(grown)), term, 50)
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
    index_before = build_index(docs_from(texts))
    avg = index_before.avg_doc_length
    if avg != int(avg) or int(avg) == 0:
        return  # only integral averages can be preserved exactly by one doc
    before = search(index_before, term, 50)
    grown = dict(texts)
    grown["zzz-new"] = " ".join(["qq"] * int(avg))
    after = search(build_index(docs_from(grown)), term, 50)
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
def test_scores_bit_identical_to_posting_walk_and_ranking_to_oracle(data):
    texts, query = data
    index = build_index(docs_from(texts))
    doc_tokens = {doc_id: oracle_tokenize(text) for doc_id, text in texts.items()}
    reference = reference_bm25_sums(doc_tokens, query)
    for doc_id in texts:
        assert bm25_score(index, query, doc_id) == reference.get(doc_id, 0.0)
    exact = sorted(reference, key=lambda d: (-reference[d], d))
    noisy = _near_tie(
        oracle_bm25_scores(doc_tokens, query),
        lambda d: (len(doc_tokens[d]), tuple(doc_tokens[d].count(term) for term in query)),
    )
    for k in sorted({1, 3, len(texts)}):
        ranked = list(search(index, " ".join(query), k).entries)
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
def test_index_arrays_bit_identical_to_reference_csr(texts):
    assert_csr_matches_reference(build_index(docs_from(texts)), texts)


class TestDense:
    def test_identity_query_ranks_first_with_similarity_one(self):
        store = build_dense_store([("d1", [1.0, 0.0]), ("d2", [0.0, 1.0])])
        result = dense_search(store, [1.0, 0.0], 2)
        assert list(result.entries) == ["d1", "d2"]

    def test_orthogonal_vector_scores_zero_but_still_ranks(self):
        store = build_dense_store([("d1", [1.0, 0.0])])
        result = dense_search(store, [0.0, 1.0], 1)
        assert list(result.entries) == ["d1"]

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(7)
        vectors = {f"d{i}": [rng.gauss(0, 1) for _ in range(4)] for i in range(5)}
        store = build_dense_store(vectors.items())
        query = [rng.gauss(0, 1) for _ in range(4)]
        expected = oracle_dense_ranking(vectors, query, 3)
        assert list(dense_search(store, query, 3).entries) == expected

    def test_dimension_mismatch_rejected(self):
        store = build_dense_store([("d1", [1.0, 0.0])])
        with pytest.raises(ValueError, match="shape"):
            dense_search(store, [1.0, 0.0, 0.0], 1)

    def test_non_finite_query_rejected(self):
        store = build_dense_store([("d1", [1.0, 0.0])])
        with pytest.raises(ValueError, match="non-finite"):
            dense_search(store, [float("nan"), 1.0], 1)

    def test_ties_break_by_doc_id(self):
        store = build_dense_store([("b", [1.0, 0.0]), ("a", [1.0, 0.0])])
        assert list(dense_search(store, [1.0, 0.0], 2).entries) == ["a", "b"]

    def test_build_normalizes(self):
        store = build_dense_store([("d1", [3.0, 4.0])])
        assert float(np.linalg.norm(store.matrix[store.ids.index("d1")])) == pytest.approx(1.0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(CorpusError, match="dimensions"):
            build_dense_store([("d1", [1.0, 0.0]), ("d2", [1.0, 0.0, 0.0])])

    def test_zero_vector_rejected(self):
        with pytest.raises(CorpusError, match="zero"):
            build_dense_store([("d1", [0.0, 0.0])])

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
            store = build_dense_store(zip(ids, matrix))
            ranked = list(dense_search(store, matrix[copies[0]], n).entries)
            units = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
            # With dim 1 every row of the same sign is a copy too.
            tied = sorted(ids[p] for p in np.flatnonzero(np.isclose(units, units[copies[0]]).all(axis=1)))
            start = ranked.index(tied[0])
            assert ranked[start : start + len(tied)] == tied, f"trial {trial}: n={n} dim={dim}"

    def test_store_validates_unit_norm(self):
        with pytest.raises(ValueError, match="unit"):
            DenseStore(ids=("d1",), matrix=np.array([[2.0, 0.0]]))


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
    store = build_dense_store(vectors.items())
    query = [float(x) for x in query]
    cosines = {  # up to the query's norm, which every document shares
        doc_id: math.fsum(a * b for a, b in zip(vec, query)) / math.sqrt(math.fsum(a * a for a in vec))
        for doc_id, vec in vectors.items()
    }
    if _near_tie(cosines, vectors.__getitem__):
        return
    for k in sorted({1, 3, len(rows)}):
        assert list(dense_search(store, query, k).entries) == oracle_dense_ranking(vectors, query, k)


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
        assert store.dim == 2 and set(store.ids) == {"d1", "d2"}

    def test_embeddings_error_cites_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"doc_id": "d1"}\n')
        with pytest.raises(CorpusError, match="line 1"):
            load_dense_store(str(path))

    @pytest.mark.parametrize(
        "vector, message",
        [('["a", 1.0]', "line 2: vector must be a list of numbers"), ("[null, 1.0]", "'d2' holds a non-finite value")],
    )
    def test_embeddings_bad_numbers_named(self, tmp_path, vector, message):
        path = tmp_path / "emb.jsonl"
        path.write_text(f'{{"doc_id": "d1", "vector": [1.0, 0.0]}}\n{{"doc_id": "d2", "vector": {vector}}}\n')
        with pytest.raises(CorpusError, match=f"^{path}: .*{message}$"):
            load_dense_store(str(path))

    def test_index_save_load_round_trip(self, tmp_path):
        texts = {"d1": "apple banana", "d2": "banana cherry", "d3": "date"}
        index = build_index(docs_from(texts))
        path = tmp_path / "index.json"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert_csr_matches_reference(loaded, texts)
        assert_csr_matches_reference(index, texts)
        assert loaded.avg_doc_length == pytest.approx(index.avg_doc_length)
        assert list(search(loaded, "banana", 10).entries) == list(search(index, "banana", 10).entries)

    @pytest.mark.parametrize(
        "loader, kind",
        [(load_corpus, "corpus"), (load_dense_store, "embeddings"), (load_index, "index")],
    )
    def test_missing_file_named(self, tmp_path, loader, kind):
        path = tmp_path / "absent.jsonl"
        with pytest.raises(CorpusError, match=f"^{kind} file not found: .*absent\\.jsonl$"):
            loader(str(path))

    def test_load_index_rejects_garbage(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"not": "an index"}')
        with pytest.raises(CorpusError, match="format"):
            load_index(str(path))

    def test_saved_index_holds_only_documents(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index(docs_from({"d1": "apple", "d2": "banana"})), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload == {
            "format": "smr-index-v1",
            "docs": [{"doc_id": "d1", "text": "apple"}, {"doc_id": "d2", "text": "banana"}],
        }
        save_index(build_index(docs_from({"d1": 'say "hi"\nto Zoë'})), str(path))
        assert path.read_bytes() == (
            '{"format":"smr-index-v1","docs":[{"doc_id":"d1","text":"say \\"hi\\"\\nto Zoë"}]}\n'
        ).encode("utf-8")

    def test_old_index_postings_ignored(self, tmp_path):
        texts = {"d1": "apple banana", "d2": "banana cherry", "d3": "date"}
        path = tmp_path / "index.json"
        path.write_text(json.dumps({
            "format": "smr-index-v1",
            "docs": [{"doc_id": doc_id, "text": text} for doc_id, text in texts.items()],
            "postings": {"banana": [["d1", 9], ["d3", 4]], "apple": [["d1", 1]], "date": [["d3", 1]]},
            "doc_lengths": {"d1": 2, "d2": 2, "d3": 7},
        }))
        loaded = load_index(str(path))
        built = build_index(docs_from(texts))
        assert_csr_matches_reference(loaded, texts)
        assert_csr_matches_reference(built, texts)
        for query in ("banana", "apple banana cherry", "date cherry"):
            assert search(loaded, query, 10).entries == search(built, query, 10).entries

    @pytest.mark.parametrize(
        "docs, message",
        [
            ([{"doc_id": "d1", "text": "a"}, {"doc_id": "d1", "text": "b"}], "docs entry 2: duplicate doc_id 'd1'"),
            ([{"doc_id": "d1", "text": 5}], "docs entry 1: doc_id and text must be strings"),
            ([{"doc_id": "d1", "text": "a"}, ["d2", "b"]], "docs entry 2: doc_id and text must be strings"),
            ([{"doc_id": "", "text": "a"}], "docs entry 1: doc_id must be a non-empty string"),
            ([], "corpus is empty"),
            ({"d1": "a"}, "index file needs a docs list"),
        ],
        ids=["duplicate-id", "non-string-text", "non-object-entry", "empty-id", "no-docs", "docs-not-a-list"],
    )
    def test_bad_index_docs_named(self, tmp_path, docs, message):
        path = tmp_path / "index.json"
        path.write_text(json.dumps({"format": "smr-index-v1", "docs": docs}))
        with pytest.raises(CorpusError) as caught:
            load_index(str(path))
        assert str(caught.value) == f"{path}: {message}"


class TestRetrieverAdapters:
    def test_bm25_adapter(self):
        index = build_index(docs_from({"d1": "apple", "d2": "banana"}))
        retriever = Bm25Retriever(index)
        assert list(retriever.search("apple", 5).entries) == ["d1"]
        assert retriever.doc_store["d2"].text == "banana"

    def test_dense_adapter_embeds_queries(self):
        store = build_dense_store([("d1", [1.0, 0.0]), ("d2", [0.0, 1.0])])
        doc_store = {d.doc_id: d for d in docs_from({"d1": "one", "d2": "two"})}
        retriever = DenseRetriever(store, doc_store, embed=lambda text: [0.0, 1.0])
        assert list(retriever.search("anything", 1).entries) == ["d2"]

    def test_dense_adapter_requires_texts_for_all_vectors(self):
        store = build_dense_store([("d1", [1.0, 0.0])])
        with pytest.raises(CorpusError, match="d1"):
            DenseRetriever(store, {}, embed=lambda text: [1.0, 0.0])
