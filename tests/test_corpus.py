import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biconvmf import corpus, serialize
from biconvmf.corpus import (
    ReviewParseError,
    ReviewRecord,
    load_pretrained_embeddings,
    parse_reviews,
    take_first_n,
)
from conftest import make_bundle, traced


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


def test_parse_reads_files(tmp_path):
    path = tmp_path / "reviews.json"
    path.write_text(line(reviewerID="A", asin="B", overall=1.0) + "\n", encoding="utf-8")
    assert len(list(parse_reviews(path))) == 1


def reference_parse(lines):
    """parse_reviews by its definition: per line, json.loads and
    _record_from_obj.  The records up to the first bad line, then that
    line's ReviewParseError (or None)."""
    records = []
    for line_no, line in enumerate(lines, start=1):
        try:
            try:
                line.encode("utf-8")
                obj = json.loads(line)
            except UnicodeEncodeError:
                raise ReviewParseError(line_no, "not valid UTF-8") from None
            except json.JSONDecodeError as exc:
                raise ReviewParseError(line_no, f"invalid JSON ({exc.msg})") from None
            except ValueError as exc:
                raise ReviewParseError(line_no, f"invalid JSON ({exc})") from None
            except RecursionError:
                raise ReviewParseError(line_no, "invalid JSON (nested too deeply)") from None
            records.append(corpus._record_from_obj(obj, line_no))
        except ReviewParseError as exc:
            return records, exc
    return records, None


def parsed(lines):
    records = []
    try:
        for rec in parse_reviews(lines):
            records.append(rec)
    except ReviewParseError as exc:
        return records, exc
    return records, None


HUGE_INT = "1" + "0" * 400
PAST_DIGIT_LIMIT = "3" + "0" * 4400
JSON_WS = st.text(alphabet=" \t\r\n", max_size=3)
KEYS = st.sampled_from(["reviewerID", "asin", "overall", "reviewText", "x"])
# raw JSON text of a value
VALUES = st.one_of(
    st.sampled_from(['"A1"', '""', "3", "4.5", "1", "5.0", "0", "true", "null", "NaN", "-Infinity",
                     "1e400", '"\\ud800"', '"caf\u00e9"', "[]", "{}", HUGE_INT, "-" + HUGE_INT,
                     PAST_DIGIT_LIMIT]),
    st.text(max_size=6).map(json.dumps),
    st.floats(allow_nan=True, allow_infinity=True).map(json.dumps),
    st.integers().map(str),
)
OBJECT = st.lists(st.tuples(KEYS, VALUES), max_size=6).map(      # keys may repeat
    lambda pairs: "{" + ", ".join(f'"{k}": {v}' for k, v in pairs) + "}")
GOOD = st.fixed_dictionaries({"reviewerID": st.sampled_from(["A", "B\u00e9"]),
                              "asin": st.sampled_from(["X", "Y"]),
                              "overall": st.sampled_from([1, 2.5, 5])},
                             optional={"reviewText": st.text(max_size=8)}).map(json.dumps)
RATED = VALUES.map(lambda v: '{"reviewerID": "A", "asin": "X", "overall": %s}' % v)
LINE = st.tuples(
    st.sampled_from([""] * 7 + ["\ufeff"]),                      # a leading BOM
    JSON_WS,
    st.one_of(GOOD, GOOD, GOOD, RATED, RATED, OBJECT, st.just(""),
              VALUES, st.lists(VALUES, max_size=2).map(lambda vs: "[" + ", ".join(vs) + "]")),
    JSON_WS,
    st.sampled_from([""] * 30 + ["x", "{}", " 1", "]", "\x0c", "\ud800"]),  # extra data
).map("".join)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(LINE, min_size=1, max_size=4))
def test_parse_matches_per_line_json_loads_reference(lines):
    got_records, got_error = parsed(lines)
    want_records, want_error = reference_parse(lines)
    assert got_records == want_records
    assert type(got_error) is type(want_error)
    if want_error is not None:
        assert (got_error.line_no, str(got_error)) == (want_error.line_no, str(want_error))


@pytest.mark.parametrize("text, message", [
    ('{"reviewerID": "A", "asin": "B", "overall": 1} x', "line 1: invalid JSON (Extra data)"),
    ('\ufeff{"reviewerID": "A", "asin": "B", "overall": 1}',
     "line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    (f'{{"reviewerID": "A", "asin": "B", "overall": {HUGE_INT}}}', "line 1: rating inf outside [1, 5]"),
    (f'{{"reviewerID": "A", "asin": "B", "overall": -{HUGE_INT}}}', "line 1: rating -inf outside [1, 5]"),
    (f'{{"reviewerID": "A", "asin": "B", "overall": {PAST_DIGIT_LIMIT}}}',
     "line 1: invalid JSON (Exceeds the limit (4300 digits)"),
    ("[" * 100_000 + "]" * 100_000, "line 1: invalid JSON (nested too deeply)"),
])
def test_parse_refusal_messages(text, message):
    with pytest.raises(ReviewParseError) as err:
        list(parse_reviews([text]))
    assert str(err.value).startswith(message)


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


# ---------------------------------------------------------------- documents

def split(docs):
    """Each of the documents' token ids, as one array per document."""
    return np.split(docs.tokens, docs.offsets[1:])


def docs_of(records, max_vocab=100, min_doc_freq=1, max_len=16):
    """Each user's and each item's document as tokens, from a bundle built on
    all the records, plus the bundle."""
    bundle = corpus.build_bundle(records, list(range(len(records))), [], max_vocab=max_vocab,
                                 min_doc_freq=min_doc_freq, max_len=max_len)

    def side(ids, docs):
        return {key: [bundle.vocab[t - 1] for t in doc]
                for key, doc in zip(ids, split(docs), strict=True)}

    return side(bundle.user_ids, bundle.user_docs), side(bundle.item_ids, bundle.item_docs), bundle


def test_review_set_concatenates_in_order():
    users, _, _ = docs_of([
        ReviewRecord("A", "X", 4.0, "good"),
        ReviewRecord("A", "Y", 2.0, "bad"),
    ])
    assert users["A"] == ["good", "bad"]


def test_review_set_single_empty_review():
    _, items, bundle = docs_of([ReviewRecord("A", "B", 3.0, "")])
    assert items["B"] == []
    assert len(bundle.vocab) == 0 and len(bundle.item_tokens) == 0


def test_review_sets_two_users_two_items():
    # hand enumerated: 2 users x 2 shared items, 4 records
    recs = [
        ReviewRecord("A", "X", 4.0, "r1"), ReviewRecord("A", "Y", 4.0, "R2!"),
        ReviewRecord("B", "X", 4.0, "r3 x"), ReviewRecord("B", "Y", 4.0, "r4"),
    ]
    users, items, _ = docs_of(recs)
    assert users == {"A": ["r1", "r2"], "B": ["r3", "x", "r4"]}
    assert items == {"X": ["r1", "r3", "x"], "Y": ["r2", "r4"]}


def test_review_sets_share_one_id_per_token():
    _, _, bundle = docs_of([
        ReviewRecord("A", "X", 4.0, "space opera"),
        ReviewRecord("B", "Y", 4.0, "more SPACE"),
    ])
    space = bundle.vocab.index("space") + 1
    users, items = split(bundle.user_docs), split(bundle.item_docs)
    assert users[0][0] == items[0][0] == space
    assert users[1][1] == items[1][1] == space


# ---------------------------------------------------------------- vocabulary

def vocab_of(*texts, **kw):
    """The vocabulary of one review per text, each by its own user and item."""
    records = [ReviewRecord(f"u{k}", f"i{k}", 3.0, text) for k, text in enumerate(texts)]
    return docs_of(records, **kw)[2].vocab


def test_vocabulary_frequency_rank_with_lexicographic_ties():
    users, _, bundle = docs_of([ReviewRecord("u1", "i1", 3.0, "b a b"),
                                ReviewRecord("u2", "i2", 3.0, "c a")])
    assert bundle.vocab == ("a", "b", "c")
    np.testing.assert_array_equal(bundle.user_tokens, [2, 1, 2, 3, 1])
    np.testing.assert_array_equal(bundle.user_doc_lens, [3, 2])


def test_vocabulary_rejects_nonpositive_max():
    with pytest.raises(ValueError, match="max_vocab"):
        vocab_of("x", max_vocab=0)


def test_vocabulary_min_doc_freq_can_empty():
    # each review's tokens are in two documents: its user's and its item's
    assert vocab_of("a b", "c d", min_doc_freq=3) == ()


def test_vocabulary_min_doc_freq_counts_documents_not_occurrences():
    assert vocab_of("a a a b", "b c", "", min_doc_freq=3) == ("b",)


def test_vocabulary_truncates():
    assert vocab_of("a a a b b c", max_vocab=2) == ("a", "b")


def test_vocabulary_empty_corpus():
    assert vocab_of("", "!?") == ()


def test_vocabulary_lowercases_and_splits_on_non_alnum():
    users, _, _ = docs_of([ReviewRecord("A", "X", 3.0, "It's GREAT\u20145 stars!!")])
    assert users["A"] == ["it", "s", "great", "5", "stars"]


def test_vocabulary_deterministic():
    texts = ("the quick brown fox", "jumps over the lazy dog", "the fox")
    assert vocab_of(*texts) == vocab_of(*texts)


# ---------------------------------------------------------------- documents: truncation

def test_tensorize_drops_oov():
    users, _, _ = docs_of([ReviewRecord("A", "X", 3.0, "a z a")], max_vocab=1, max_len=2)
    assert users["A"] == ["a", "a"]


def test_tensorize_empty_text():
    users, _, bundle = docs_of([ReviewRecord("A", "X", 3.0, "a"), ReviewRecord("B", "X", 3.0, "")],
                               max_len=3)
    assert users["B"] == []
    assert bundle.user_doc_lens[1] == 0 and len(bundle.user_tokens) == 1


def test_tensorize_truncates():
    users, _, _ = docs_of([ReviewRecord("A", "X", 3.0, "a b"), ReviewRecord("A", "Y", 3.0, "a b a")],
                          max_len=3)
    assert users["A"] == ["a", "b", "a"]


def test_tensorize_requires_positive_max_len():
    with pytest.raises(ValueError, match="max_len"):
        docs_of([ReviewRecord("A", "X", 3.0, "a")], max_len=0)


# ---------------------------------------------------------------- embeddings

def test_load_embeddings_basic(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1.0 2.0\n", encoding="utf-8")
    table = load_pretrained_embeddings(path, ("a",), 2)
    np.testing.assert_array_equal(table[0], [0.0, 0.0])
    np.testing.assert_array_equal(table[1], [1.0, 2.0])


def test_load_embeddings_header_dim_mismatch(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2 3\na 1 2 3\n", encoding="utf-8")
    with pytest.raises(corpus.EmbeddingFormatError, match="expected 2.*declares 3"):
        load_pretrained_embeddings(path, ("a",), 2)


def test_load_embeddings_row_dim_mismatch(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 2 3\n", encoding="utf-8")
    with pytest.raises(corpus.EmbeddingFormatError, match="expected 2.*found 3"):
        load_pretrained_embeddings(path, ("a",), 2)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_load_embeddings_non_finite_value_names_its_line(tmp_path, value):
    path = tmp_path / "vecs.txt"
    path.write_text(f"2 2\nq 0.5 0.5\na 1.0 {value}\n", encoding="utf-8")
    with pytest.raises(corpus.EmbeddingFormatError, match="line 3: not a finite number"):
        load_pretrained_embeddings(path, ("a",), 2)


def test_load_embeddings_missing_token_is_seeded_uniform(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1.0 2.0\n", encoding="utf-8")
    vocab = ("a", "q")  # q is missing from the file
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
    # u3 has no training reviews: an empty document
    pos = bundle.user_ids.index("u3")
    assert bundle.user_doc_lens[pos] == 0
    assert len(split(bundle.user_docs)[pos]) == 0


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
    assert back.vocab == tiny_bundle.vocab
    assert back.user_ids == tiny_bundle.user_ids
    assert back.item_ids == tiny_bundle.item_ids
    for name in ("user_tokens", "user_doc_lens", "item_tokens", "item_doc_lens",
                 "train_user_idx", "train_item_idx", "train_ratings",
                 "test_user_idx", "test_item_idx", "test_ratings"):
        np.testing.assert_array_equal(getattr(back, name), getattr(tiny_bundle, name))
    assert back.stats == tiny_bundle.stats
    corpus.save_bundle(back, tmp_path / "again.bcmf")
    assert (tmp_path / "again.bcmf").read_bytes() == path.read_bytes()


def test_train_digest_follows_the_triplets_not_their_dtype(tmp_path, tiny_bundle):
    digest = tiny_bundle.train_digest()
    corpus.save_bundle(tiny_bundle, tmp_path / "bundle.bcmf")
    assert corpus.load_bundle(tmp_path / "bundle.bcmf").train_digest() == digest
    wide = replace(tiny_bundle, train_user_idx=tiny_bundle.train_user_idx.astype(np.int64))
    assert wide.train_digest() == digest
    # two ratings trade items: every training count stays, the digest does not
    users, items = tiny_bundle.train_user_idx, tiny_bundle.train_item_idx.copy()
    j = int(np.flatnonzero((users != users[0]) & (items != items[0]))[0])
    items[[0, j]] = items[[j, 0]]
    assert replace(tiny_bundle, train_item_idx=items).train_digest() != digest


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta.pop("split_seed"), "missing meta key 'split_seed'"),
    (lambda meta: meta.update(shuffled=True), "unexpected meta key 'shuffled'"),
])
def test_bundle_meta_mismatch_refused(tmp_path, tiny_bundle, edit, message):
    path = tmp_path / "bundle.bcmf"
    corpus.save_bundle(tiny_bundle, path)
    _, sections = serialize.read_container(path, corpus.BUNDLE_MAGIC, (corpus.BUNDLE_VERSION,))
    meta = serialize.json_from_bytes(sections["meta"], "meta")
    edit(meta)
    sections["meta"] = serialize.json_to_bytes(meta)
    serialize.write_container(path, corpus.BUNDLE_MAGIC, corpus.BUNDLE_VERSION, sections)
    with pytest.raises(serialize.ContainerError, match=message):
        corpus.load_bundle(path)


def test_bundle_save_and_load_copy_no_array_twice(tmp_path):
    # save copies no array: beyond what the same ids and vocabulary take with
    # every array empty (the meta JSON, about 200 kB here), it allocates a
    # small fraction of the arrays' bytes; load holds the file's bytes once
    # beside the bundle it returns
    bundle = make_bundle(n_users=2000, n_items=100, max_len=64)
    array_bytes = sum(getattr(bundle, f.name).nbytes for f in fields(bundle)
                      if isinstance(getattr(bundle, f.name), np.ndarray))
    none = np.zeros(0, np.int32)
    bare = replace(bundle, user_tokens=none, user_doc_lens=np.zeros(bundle.n_users, np.int32),
                   item_tokens=none, item_doc_lens=np.zeros(bundle.n_items, np.int32),
                   train_user_idx=none, train_item_idx=none, train_ratings=np.zeros(0),
                   test_user_idx=none, test_item_idx=none, test_ratings=np.zeros(0))
    _, bare_peak, _ = traced(corpus.save_bundle, bare, tmp_path / "bare.bcmf")
    path = tmp_path / "bundle.bcmf"
    _, save_peak, _ = traced(corpus.save_bundle, bundle, path)
    assert save_peak - bare_peak <= 0.1 * array_bytes
    back, load_peak, kept = traced(corpus.load_bundle, path)
    assert load_peak - kept <= 1.25 * path.stat().st_size
    np.testing.assert_array_equal(back.user_tokens, bundle.user_tokens)


def test_bundle_build_is_deterministic():
    records = _bundle_records()
    b1 = corpus.build_bundle(records, [0, 1, 2, 4], [3], max_len=8)
    b2 = corpus.build_bundle(records, [0, 1, 2, 4], [3], max_len=8)
    assert b1.vocab == b2.vocab
    np.testing.assert_array_equal(b1.user_tokens, b2.user_tokens)
    np.testing.assert_array_equal(b1.train_ratings, b2.train_ratings)


def test_bundle_training_text_matches_training_split(tiny_bundle):
    # every document token count is explained by training reviews alone:
    # users with no training ratings must have empty documents
    train_users = set(tiny_bundle.train_user_idx.tolist())
    for pos in range(tiny_bundle.n_users):
        if pos not in train_users:
            assert tiny_bundle.user_doc_lens[pos] == 0


def test_bundle_documents_pad_right():
    # stored unpadded, back to back: padding is the CNN's, past each document's end
    records = [ReviewRecord("u1", "i1", 4.0, "a b"), ReviewRecord("u2", "i1", 2.0, "b z")]
    bundle = corpus.build_bundle(records, [0, 1], [], max_len=4)
    assert bundle.vocab == ("b", "a", "z")
    assert bundle.user_tokens.dtype == bundle.item_tokens.dtype == np.int32
    np.testing.assert_array_equal(bundle.user_tokens, [2, 1, 1, 3])
    np.testing.assert_array_equal(bundle.user_doc_lens, [2, 2])
    np.testing.assert_array_equal(bundle.item_tokens, [2, 1, 1, 3])
    np.testing.assert_array_equal(bundle.item_doc_lens, [4])
    docs = bundle.user_docs
    assert len(docs) == 2 and docs is bundle.user_docs
    np.testing.assert_array_equal(docs.offsets, [0, 2])
    np.testing.assert_array_equal(split(docs)[1], [1, 3])
    tokens, lens = docs.gather([1, 0, 1])
    np.testing.assert_array_equal(tokens, [1, 3, 2, 1, 1, 3])
    np.testing.assert_array_equal(lens, [2, 2, 2])


def test_bundle_file_grows_with_its_tokens_not_with_max_len(tmp_path):
    # ten times max_len pads nothing: the file grows by the 4 bytes of each
    # int32 token that the longer documents keep, and a few header digits
    sizes, tokens = [], []
    for max_len in (64, 640):
        bundle = make_bundle(n_users=500, n_items=40, max_len=max_len)
        path = tmp_path / f"{max_len}.bcmf"
        corpus.save_bundle(bundle, path)
        sizes.append(path.stat().st_size)
        tokens.append(len(bundle.user_tokens) + len(bundle.item_tokens))
    assert tokens[1] > tokens[0]
    assert 0 <= sizes[1] - sizes[0] - 4 * (tokens[1] - tokens[0]) < 200


# The bundle's documents, by the definition they follow: join each side's
# training reviews with " ", take the [a-z0-9]+ runs of the lowercased joined
# text, keep the in-vocabulary tokens and truncate to max_len.  The Kelvin sign and the dotted capital I lowercase to ASCII ("k",
# and "i" plus a combining dot); capital sigma lowercases by context, to a
# letter outside [a-z0-9].  A lone surrogate, a fullwidth digit, sharp s,
# the fi ligature, tab, newline and NUL all separate tokens.
REVIEW_TEXT = st.text(alphabet="abAB z,.!-9\u212a\u0130\u03a3\ud800\uff11\u00df\ufb01\t\n\x00",
                      max_size=16)


def reference_tokens(text):
    return re.findall(r"[a-z0-9]+", text.lower())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), REVIEW_TEXT, st.booleans()),
                min_size=1, max_size=12),
       st.integers(1, 6), st.integers(1, 3), st.integers(1, 6))
def test_bundle_documents_match_joined_text_reference(rows, max_vocab, min_doc_freq, max_len):
    records = [ReviewRecord(f"u{u}", f"i{i}", 3.0, text) for u, i, text, _ in rows]
    train_idx = [k for k, row in enumerate(rows) if not row[3]] or [0]
    test_idx = [k for k in range(len(rows)) if k not in train_idx]
    bundle = corpus.build_bundle(records, train_idx, test_idx, max_vocab=max_vocab,
                                 min_doc_freq=min_doc_freq, max_len=max_len)

    def joined(side):
        texts = {}
        for k in train_idx:
            texts.setdefault(getattr(records[k], side), []).append(records[k].review_text)
        return {key: reference_tokens(" ".join(parts)) for key, parts in texts.items()}

    user_toks, item_toks = joined("user_id"), joined("item_id")
    docs = list(user_toks.values()) + list(item_toks.values())
    total = {t: sum(doc.count(t) for doc in docs) for doc in docs for t in doc}
    eligible = [t for t in total if sum(t in doc for doc in docs) >= min_doc_freq]
    assert bundle.vocab == tuple(sorted(eligible, key=lambda t: (-total[t], t))[:max_vocab])

    index = {t: pos + 1 for pos, t in enumerate(bundle.vocab)}
    for ids, toks, docs in ((bundle.user_ids, user_toks, bundle.user_docs),
                            (bundle.item_ids, item_toks, bundle.item_docs)):
        for key, doc in zip(ids, split(docs), strict=True):
            kept = [index[t] for t in toks.get(key, []) if t in index][:max_len]
            assert doc.tolist() == kept
