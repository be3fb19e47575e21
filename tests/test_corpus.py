import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biconvmf import corpus, serialize
from biconvmf.corpus import (
    MalformedRecordWarning,
    ReviewParseError,
    ReviewRecord,
    build_review_sets,
    build_vocabulary,
    load_pretrained_embeddings,
    parse_reviews,
    take_first_n,
    tensorize,
    tokenize,
)


def line(**kw):
    return json.dumps(kw)


# ---------------------------------------------------------------- parsing

def test_parse_maps_fields():
    recs = list(parse_reviews([line(reviewerID="A1", asin="B1", overall=5.0, reviewText="great")]))
    assert recs == [ReviewRecord("A1", "B1", 5.0, "great")]


def test_parse_missing_text_defaults_to_empty():
    recs = list(parse_reviews([line(reviewerID="A1", asin="B1", overall=3.0)]))
    assert recs == [ReviewRecord("A1", "B1", 3.0, "")]


def test_parse_missing_user_id_is_an_error():
    with pytest.raises(ReviewParseError, match="line 1.*reviewerID"):
        list(parse_reviews([line(asin="B1", overall=3.0)]))


def test_parse_error_carries_line_number():
    lines = [line(reviewerID="A", asin="B", overall=4.0), "not json"]
    with pytest.raises(ReviewParseError) as err:
        list(parse_reviews(lines))
    assert err.value.line_no == 2


def test_parse_rejects_out_of_range_rating():
    with pytest.raises(ReviewParseError, match="outside"):
        list(parse_reviews([line(reviewerID="A", asin="B", overall=7.0)]))


def test_parse_skip_mode_warns_and_continues():
    lines = [
        line(reviewerID="A", asin="B", overall=4.0),
        "garbage",
        line(reviewerID="C", asin="D", overall=2.0),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recs = list(parse_reviews(lines, on_error="skip"))
    assert [r.user_id for r in recs] == ["A", "C"]
    assert any(issubclass(w.category, MalformedRecordWarning) for w in caught)


def test_parse_reads_files(tmp_path):
    path = tmp_path / "reviews.json"
    path.write_text(line(reviewerID="A", asin="B", overall=1.0) + "\n", encoding="utf-8")
    assert len(list(parse_reviews(path))) == 1


# ---------------------------------------------------------------- take_first_n

def _recs(n):
    return [ReviewRecord(f"u{i}", f"i{i % 3}", 3.0, "") for i in range(n)]


def test_take_first_n_truncation_noop():
    head, stats = take_first_n(_recs(3), 5)
    assert head == _recs(3)
    assert stats.n_ratings == 3


def test_take_first_n_zero():
    head, stats = take_first_n(_recs(3), 0)
    assert head == []
    assert (stats.n_users, stats.n_items, stats.n_ratings, stats.density) == (0, 0, 0, 0.0)


def test_take_first_n_stats_counts_distinct():
    recs = [
        ReviewRecord("u1", "i1", 4.0), ReviewRecord("u1", "i2", 2.0),
        ReviewRecord("u2", "i1", 5.0), ReviewRecord("u2", "i2", 1.0),
    ]
    _, stats = take_first_n(recs, 4)
    assert (stats.n_users, stats.n_items, stats.n_ratings) == (2, 2, 4)
    assert stats.density == 1.0


@given(st.integers(0, 40), st.integers(0, 50))
def test_take_first_n_is_a_prefix(total, n):
    recs = _recs(total)
    head, _ = take_first_n(recs, n)
    assert head == recs[:min(n, total)]


def test_take_first_n_rejects_negative():
    with pytest.raises(ValueError):
        take_first_n([], -1)


# ---------------------------------------------------------------- review sets

def test_review_set_concatenates_in_order():
    users, _ = build_review_sets([
        ReviewRecord("A", "X", 4.0, "good"),
        ReviewRecord("A", "Y", 2.0, "bad"),
    ])
    assert users["A"] == "good bad"


def test_review_set_single_empty_review():
    _, items = build_review_sets([ReviewRecord("A", "B", 3.0, "")])
    assert items["B"] == ""


def test_review_sets_two_users_two_items():
    # hand enumerated: 2 users x 2 shared items, 4 records
    recs = [
        ReviewRecord("A", "X", 4.0, "r1"), ReviewRecord("A", "Y", 4.0, "r2"),
        ReviewRecord("B", "X", 4.0, "r3"), ReviewRecord("B", "Y", 4.0, "r4"),
    ]
    users, items = build_review_sets(recs)
    assert users == {"A": "r1 r2", "B": "r3 r4"}
    assert items == {"X": "r1 r3", "Y": "r2 r4"}


# ---------------------------------------------------------------- vocabulary

def test_vocabulary_frequency_rank_with_lexicographic_ties():
    vocab = build_vocabulary(["a b a", "b c"], max_vocab=10, min_doc_freq=1)
    assert vocab.tokens == ("a", "b", "c")
    assert (vocab.lookup("a"), vocab.lookup("b"), vocab.lookup("c")) == (1, 2, 3)


def test_vocabulary_rejects_nonpositive_max():
    with pytest.raises(ValueError):
        build_vocabulary(["x"], max_vocab=0)


def test_vocabulary_min_doc_freq_can_empty():
    vocab = build_vocabulary(["a b", "c d"], max_vocab=10, min_doc_freq=2)
    assert len(vocab) == 0


def test_vocabulary_truncates():
    vocab = build_vocabulary(["a a a b b c"], max_vocab=2)
    assert vocab.tokens == ("a", "b")


def test_vocabulary_empty_corpus():
    assert len(build_vocabulary([], max_vocab=5)) == 0


def test_vocabulary_lowercases_and_splits_on_non_alnum():
    assert tokenize("It's GREAT—5 stars!!") == ["it", "s", "great", "5", "stars"]


def test_vocabulary_deterministic():
    docs = ["the quick brown fox", "jumps over the lazy dog", "the fox"]
    assert build_vocabulary(docs).tokens == build_vocabulary(docs).tokens


# ---------------------------------------------------------------- tensorize

VOCAB_AB = build_vocabulary(["a b"])  # a=1, b=2


def test_tensorize_pads_right():
    doc = tensorize("a b", VOCAB_AB, max_len=4)
    np.testing.assert_array_equal(doc.indices, [1, 2, 0, 0])
    assert doc.true_len == 2


def test_tensorize_drops_oov():
    doc = tensorize("a z a", build_vocabulary(["a"]), max_len=2)
    np.testing.assert_array_equal(doc.indices, [1, 1])
    assert doc.true_len == 2


def test_tensorize_empty_text():
    doc = tensorize("", VOCAB_AB, max_len=3)
    np.testing.assert_array_equal(doc.indices, [0, 0, 0])
    assert doc.true_len == 0


def test_tensorize_truncates():
    doc = tensorize("a b a b a", VOCAB_AB, max_len=3)
    np.testing.assert_array_equal(doc.indices, [1, 2, 1])
    assert doc.true_len == 3


def test_tensorize_requires_positive_max_len():
    with pytest.raises(ValueError):
        tensorize("a", VOCAB_AB, max_len=0)


@given(st.text(alphabet="ab z", max_size=40), st.integers(1, 12))
def test_tensorize_padding_is_neutral(text, max_len):
    doc = tensorize(text, VOCAB_AB, max_len)
    assert doc.indices.shape == (max_len,)
    assert (doc.indices[doc.true_len:] == 0).all()
    assert (doc.indices[:doc.true_len] > 0).all()


# ---------------------------------------------------------------- embeddings

def test_load_embeddings_basic(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1.0 2.0\n", encoding="utf-8")
    table = load_pretrained_embeddings(path, build_vocabulary(["a"]), 2)
    np.testing.assert_array_equal(table[0], [0.0, 0.0])
    np.testing.assert_array_equal(table[1], [1.0, 2.0])


def test_load_embeddings_header_dim_mismatch(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2 3\na 1 2 3\n", encoding="utf-8")
    with pytest.raises(corpus.EmbeddingFormatError, match="expected 2.*declares 3"):
        load_pretrained_embeddings(path, build_vocabulary(["a"]), 2)


def test_load_embeddings_row_dim_mismatch(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 2 3\n", encoding="utf-8")
    with pytest.raises(corpus.EmbeddingFormatError, match="expected 2.*found 3"):
        load_pretrained_embeddings(path, build_vocabulary(["a"]), 2)


def test_load_embeddings_missing_token_is_seeded_uniform(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1.0 2.0\n", encoding="utf-8")
    vocab = build_vocabulary(["a q a"])  # a=1, q=2; q missing from the file
    t1 = load_pretrained_embeddings(path, vocab, 2, seed=13)
    t2 = load_pretrained_embeddings(path, vocab, 2, seed=13)
    np.testing.assert_array_equal(t1, t2)  # bitwise identical across runs
    assert (np.abs(t1[2]) < 0.25).all()
    assert not np.array_equal(t1[2], [0.0, 0.0])


# ---------------------------------------------------------------- bundle

def _bundle_records():
    raw = [
        ("u1", "i1", 4.0, "solid space opera"),
        ("u1", "i2", 2.0, "weak plot"),
        ("u2", "i1", 5.0, "stunning space battle"),
        ("u3", "i2", 1.0, "dreadful SENTINELTOKEN"),
        ("u2", "i2", 3.0, "okay watchable"),
    ]
    return [ReviewRecord(u, i, r, t) for u, i, r, t in raw]


def test_bundle_keeps_test_text_out_of_vocab_and_docs():
    records = _bundle_records()
    # force the record containing the sentinel into the test split
    train_idx = [0, 1, 2, 4]
    test_idx = [3]
    bundle = corpus.build_bundle(records, train_idx, test_idx, max_vocab=100, max_len=8)
    assert "sentineltoken" not in bundle.vocab
    assert "dreadful" not in bundle.vocab
    # u3 has no training reviews: all-padding document
    pos = bundle.user_ids.index("u3")
    assert bundle.user_doc_lens[pos] == 0
    assert (bundle.user_docs[pos] == 0).all()


def test_bundle_split_invariants_enforced():
    records = _bundle_records()
    with pytest.raises(ValueError, match="partition"):
        corpus.build_bundle(records, [0, 1, 2], [2, 3, 4], max_len=8)
    with pytest.raises(ValueError, match="partition"):
        corpus.build_bundle(records, [0, 1], [3, 4], max_len=8)


def test_bundle_roundtrip_bitwise(tmp_path, tiny_bundle):
    path = tmp_path / "bundle.bcmf"
    corpus.save_bundle(tiny_bundle, path)
    back = corpus.load_bundle(path)
    assert back.vocab.tokens == tiny_bundle.vocab.tokens
    assert back.user_ids == tiny_bundle.user_ids
    assert back.item_ids == tiny_bundle.item_ids
    for name in ("user_docs", "user_doc_lens", "item_docs", "item_doc_lens",
                 "train_user_idx", "train_item_idx", "train_ratings",
                 "test_user_idx", "test_item_idx", "test_ratings"):
        np.testing.assert_array_equal(getattr(back, name), getattr(tiny_bundle, name))
    assert back.stats == tiny_bundle.stats
    corpus.save_bundle(back, tmp_path / "again.bcmf")
    assert (tmp_path / "again.bcmf").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta.pop("split_seed"), "missing meta key 'split_seed'"),
    (lambda meta: meta.update(shuffled=True), "unexpected meta key 'shuffled'"),
])
def test_bundle_meta_mismatch_refused(tmp_path, tiny_bundle, edit, message):
    path = tmp_path / "bundle.bcmf"
    corpus.save_bundle(tiny_bundle, path)
    _, sections = serialize.read_container(path, corpus.BUNDLE_MAGIC, (1,))
    meta = json.loads(sections["meta"])
    edit(meta)
    sections["meta"] = serialize.json_to_bytes(meta)
    serialize.write_container(path, corpus.BUNDLE_MAGIC, 1, sections)
    with pytest.raises(serialize.ContainerError, match=message):
        corpus.load_bundle(path)


def test_bundle_build_is_deterministic():
    records = _bundle_records()
    b1 = corpus.build_bundle(records, [0, 1, 2, 4], [3], max_len=8)
    b2 = corpus.build_bundle(records, [0, 1, 2, 4], [3], max_len=8)
    assert b1.vocab.tokens == b2.vocab.tokens
    np.testing.assert_array_equal(b1.user_docs, b2.user_docs)
    np.testing.assert_array_equal(b1.train_ratings, b2.train_ratings)


def test_bundle_training_text_matches_training_split(tiny_bundle):
    # every document token count is explained by training reviews alone:
    # users with no training ratings must have empty documents
    train_users = set(tiny_bundle.train_user_idx.tolist())
    for pos in range(tiny_bundle.n_users):
        if pos not in train_users:
            assert tiny_bundle.user_doc_lens[pos] == 0
