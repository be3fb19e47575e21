"""Review ingestion and text preparation.

Turns a JSON-lines review dump (fields reviewerID, asin, overall,
reviewText) into the inputs the factorization needs: per-user and per-item
review sets, a vocabulary, fixed-length token-index documents, and
optionally a pretrained embedding table.  Review sets are built from the
training split only, so no test text ever reaches the vocabulary or the
documents.

Tokenization is deliberately simple and reproducible: lowercase, keep
maximal [a-z0-9] runs, no stemming and no stopword list.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize

TOKEN_RE = re.compile(r"[a-z0-9]+")

BUNDLE_MAGIC = b"BCMFCORP"
BUNDLE_VERSION = 1

# Defaults for the text pipeline; the CLI config can override all of them.
DEFAULT_MAX_VOCAB = 8000
DEFAULT_MIN_DOC_FREQ = 1
DEFAULT_MAX_LEN = 300
DEFAULT_EMBEDDING_DIM = 200


class ReviewParseError(ValueError):
    """A malformed input line, with its 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class EmbeddingFormatError(ValueError):
    """Pretrained embedding file does not match the expected text format."""


@dataclass(frozen=True)
class ReviewRecord:
    user_id: str
    item_id: str
    rating: float
    review_text: str = ""


@dataclass(frozen=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_ratings: int
    density: float

    @property
    def density_percent(self) -> float:
        return 100.0 * self.density


def tokenize(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def parse_reviews(source):
    """Yield ReviewRecords from a JSON-lines file path or an iterable of lines.

    Each line must be a JSON object with non-empty string reviewerID and
    asin and a finite numeric overall in [1, 5]; a missing reviewText
    becomes the empty string.  A malformed line, or one that is not valid
    UTF-8, raises ReviewParseError with its line number.
    """
    if isinstance(source, (str, Path)):
        # undecodable bytes come through as lone surrogates, refused below
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            yield from parse_reviews(fh)
        return
    for line_no, line in enumerate(source, start=1):
        try:
            line.encode("utf-8")
            obj = json.loads(line)
        except UnicodeEncodeError:
            raise ReviewParseError(line_no, "not valid UTF-8") from None
        except json.JSONDecodeError as exc:
            raise ReviewParseError(line_no, f"invalid JSON ({exc.msg})") from None
        yield _record_from_obj(obj, line_no)


def _record_from_obj(obj, line_no: int) -> ReviewRecord:
    if not isinstance(obj, dict):
        raise ReviewParseError(line_no, "record is not a JSON object")
    user = obj.get("reviewerID")
    item = obj.get("asin")
    rating = obj.get("overall")
    if not isinstance(user, str) or not user:
        raise ReviewParseError(line_no, "missing or empty reviewerID")
    if not isinstance(item, str) or not item:
        raise ReviewParseError(line_no, "missing or empty asin")
    if isinstance(rating, bool) or not isinstance(rating, (int, float)):
        raise ReviewParseError(line_no, "missing or non-numeric overall rating")
    rating = float(rating)
    if not np.isfinite(rating) or not 1.0 <= rating <= 5.0:
        raise ReviewParseError(line_no, f"rating {rating} outside [1, 5]")
    text = obj.get("reviewText", "")
    if text is None:
        text = ""
    if not isinstance(text, str):
        raise ReviewParseError(line_no, "reviewText is not a string")
    return ReviewRecord(user, item, rating, text)


def take_first_n(records, n: int) -> tuple[list[ReviewRecord], DatasetStats]:
    """First min(n, total) records in input order, plus slice statistics."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    head = list(itertools.islice(iter(records), n))
    users = {r.user_id for r in head}
    items = {r.item_id for r in head}
    density = len(head) / (len(users) * len(items)) if head else 0.0
    return head, DatasetStats(len(users), len(items), len(head), density)


def build_review_sets(records) -> tuple[dict[str, str], dict[str, str]]:
    """Concatenate review text per user and per item, in record order.

    The caller must pass training-split records only; that is what keeps
    test text out of the vocabulary and documents.
    """
    user_texts: dict[str, list[str]] = {}
    item_texts: dict[str, list[str]] = {}
    for rec in records:
        user_texts.setdefault(rec.user_id, []).append(rec.review_text)
        item_texts.setdefault(rec.item_id, []).append(rec.review_text)
    user_sets = {uid: " ".join(parts) for uid, parts in user_texts.items()}
    item_sets = {iid: " ".join(parts) for iid, parts in item_texts.items()}
    return user_sets, item_sets


class Vocabulary:
    """Token -> index map; index 0 is reserved for padding and OOV.  Iterates over the tokens."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self._index = {t: i + 1 for i, t in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str):
        """Index of token, or None when out of vocabulary."""
        return self._index.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __iter__(self):
        return iter(self.tokens)


def build_vocabulary(docs, max_vocab: int = DEFAULT_MAX_VOCAB,
                     min_doc_freq: int = DEFAULT_MIN_DOC_FREQ) -> Vocabulary:
    """Rank tokens by total frequency (ties lexicographic) and truncate.

    Tokens appearing in fewer than min_doc_freq documents are dropped before
    ranking.  Deterministic for a given document sequence.
    """
    if max_vocab < 1:
        raise ValueError(f"max_vocab must be >= 1, got {max_vocab}")
    total: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    for doc in docs:
        toks = tokenize(doc)
        for t in toks:
            total[t] = total.get(t, 0) + 1
        for t in set(toks):
            doc_freq[t] = doc_freq.get(t, 0) + 1
    eligible = [t for t in total if doc_freq[t] >= min_doc_freq]
    eligible.sort(key=lambda t: (-total[t], t))
    return Vocabulary(tuple(eligible[:max_vocab]))


@dataclass(frozen=True, eq=False)
class TokenDocument:
    """Fixed-length token-index sequence, right-padded with index 0."""

    indices: np.ndarray  # (max_len,) int32
    true_len: int


def tensorize(text: str, vocab: Vocabulary, max_len: int) -> TokenDocument:
    """Map text to a fixed-length index sequence.

    Out-of-vocabulary tokens are dropped (they neither occupy a position nor
    count toward true_len); anything past max_len kept tokens is truncated.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = []
    for tok in tokenize(text):
        idx = vocab.lookup(tok)
        if idx is not None:
            ids.append(idx)
            if len(ids) == max_len:
                break
    out = np.zeros(max_len, dtype=np.int32)
    out[:len(ids)] = ids
    return TokenDocument(out, len(ids))


def load_pretrained_embeddings(path, vocab: Vocabulary, embedding_dim: int,
                               seed: int = 0) -> np.ndarray:
    """Load a text-format word-vector file into a (size+1, dim) table.

    Format: optional header line "count dim", then one line per word: the
    token followed by dim space-separated floats.  Vocabulary tokens missing
    from the file get a seeded Uniform(-0.25, 0.25) vector; row 0 (padding)
    is all zeros.  A dimension mismatch is an error naming both dims; a line
    that is not valid UTF-8 is an error naming its number.
    """
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        first = True
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise EmbeddingFormatError(f"line {line_no} is not valid UTF-8") from None
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            if first:
                first = False
                if len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                    declared = int(parts[1])
                    if declared != embedding_dim:
                        raise EmbeddingFormatError(
                            f"embedding dimension mismatch: expected {embedding_dim}, file declares {declared}"
                        )
                    continue
            token, vals = parts[0], parts[1:]
            if len(vals) != embedding_dim:
                raise EmbeddingFormatError(
                    f"embedding dimension mismatch at line {line_no}: expected {embedding_dim}, found {len(vals)}"
                )
            if token in vocab and token not in vectors:
                try:
                    vectors[token] = np.array([float(v) for v in vals], dtype=np.float64)
                except ValueError as exc:
                    raise EmbeddingFormatError(f"bad vector value at line {line_no}: {exc}") from None
    table = np.zeros((vocab.size + 1, embedding_dim), dtype=np.float64)
    rng = np.random.default_rng(seed)
    for i, token in enumerate(vocab.tokens, start=1):
        vec = vectors.get(token)
        if vec is None:
            table[i] = rng.uniform(-0.25, 0.25, embedding_dim)
        else:
            table[i] = vec
    return table


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


@serialize.container(BUNDLE_MAGIC, BUNDLE_VERSION,
                     "vocab", "user_ids", "item_ids", "user_docs", "user_doc_lens",
                     "item_docs", "item_doc_lens", "train_user_idx", "train_item_idx",
                     "train_ratings", "test_user_idx", "test_item_idx", "test_ratings")
@dataclass
class CorpusBundle:
    """Everything training needs, so it never re-tokenizes.

    Documents and the vocabulary are derived from the training split alone;
    the test triplets are carried for evaluation only.
    """

    vocab: Vocabulary
    max_len: int
    user_ids: list[str]
    item_ids: list[str]
    user_docs: np.ndarray       # (n_users, max_len) int32
    user_doc_lens: np.ndarray   # (n_users,) int32
    item_docs: np.ndarray
    item_doc_lens: np.ndarray
    train_user_idx: np.ndarray  # int32
    train_item_idx: np.ndarray
    train_ratings: np.ndarray   # float64
    test_user_idx: np.ndarray
    test_item_idx: np.ndarray
    test_ratings: np.ndarray
    stats: DatasetStats
    test_fraction: float
    split_seed: int

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)


def build_bundle(records: list[ReviewRecord], train_idx, test_idx,
                 max_vocab: int = DEFAULT_MAX_VOCAB,
                 min_doc_freq: int = DEFAULT_MIN_DOC_FREQ,
                 max_len: int = DEFAULT_MAX_LEN,
                 test_fraction: float = 0.2,
                 split_seed: int = 0) -> CorpusBundle:
    """Assemble the corpus bundle from records plus a train/test index split.

    Ids are mapped in first-appearance order over all records.  Review sets,
    the vocabulary, and the documents come from the training records only;
    users or items that appear only in test get all-padding documents.
    """
    train_idx = np.sort(np.asarray(train_idx, dtype=np.int64))
    test_idx = np.sort(np.asarray(test_idx, dtype=np.int64))
    n = len(records)
    marks = np.zeros(n, dtype=np.int8)
    marks[train_idx] += 1
    marks[test_idx] += 1
    if len(train_idx) + len(test_idx) != n or not (marks == 1).all():
        raise ValueError("train and test indices must partition the records exactly")
    if len(train_idx) == 0:
        raise ValueError("training split is empty")

    user_pos: dict[str, int] = {}
    item_pos: dict[str, int] = {}
    for rec in records:
        user_pos.setdefault(rec.user_id, len(user_pos))
        item_pos.setdefault(rec.item_id, len(item_pos))
    user_ids = list(user_pos)
    item_ids = list(item_pos)

    train_records = [records[i] for i in train_idx]
    user_sets, item_sets = build_review_sets(train_records)
    vocab = build_vocabulary(
        itertools.chain(user_sets.values(), item_sets.values()),
        max_vocab=max_vocab, min_doc_freq=min_doc_freq,
    )

    def doc_block(ids, sets):
        docs = np.zeros((len(ids), max_len), dtype=np.int32)
        lens = np.zeros(len(ids), dtype=np.int32)
        for row, key in enumerate(ids):
            doc = tensorize(sets.get(key, ""), vocab, max_len)
            docs[row] = doc.indices
            lens[row] = doc.true_len
        return docs, lens

    user_docs, user_doc_lens = doc_block(user_ids, user_sets)
    item_docs, item_doc_lens = doc_block(item_ids, item_sets)

    def triplets(idx):
        u = np.array([user_pos[records[i].user_id] for i in idx], dtype=np.int32)
        v = np.array([item_pos[records[i].item_id] for i in idx], dtype=np.int32)
        r = np.array([records[i].rating for i in idx], dtype=np.float64)
        return u, v, r

    tr_u, tr_i, tr_r = triplets(train_idx)
    te_u, te_i, te_r = triplets(test_idx)
    _, stats = take_first_n(records, n)
    return CorpusBundle(
        vocab=vocab, max_len=max_len, user_ids=user_ids, item_ids=item_ids,
        user_docs=user_docs, user_doc_lens=user_doc_lens,
        item_docs=item_docs, item_doc_lens=item_doc_lens,
        train_user_idx=tr_u, train_item_idx=tr_i, train_ratings=tr_r,
        test_user_idx=te_u, test_item_idx=te_i, test_ratings=te_r,
        stats=stats, test_fraction=test_fraction, split_seed=split_seed,
    )


def save_bundle(bundle: CorpusBundle, path) -> None:
    serialize.save(bundle, path)


def load_bundle(path) -> CorpusBundle:
    return serialize.load(CorpusBundle, path)
