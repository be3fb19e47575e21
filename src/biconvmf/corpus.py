"""Review ingestion and text preparation.

Turns a JSON-lines review dump (fields reviewerID, asin, overall,
reviewText) into the inputs the factorization needs: a vocabulary, one
token-index document per user and per item, and optionally a pretrained
embedding table.  The vocabulary and the documents are built from the
training split only, so no test text ever reaches them.

Tokenization is deliberately simple and reproducible: lowercase, keep
maximal [a-z0-9] runs, no stemming and no stopword list.  It runs on bytes:
the lowercased text is UTF-8 encoded, every byte outside [a-z0-9] becomes a
space (each byte of a non-ASCII character is >= 0x80), and the result is
split on spaces.  That gives exactly the [a-z0-9]+ runs of the lowercased
text.

Each training review is tokenized once, straight to integer token ids, and
its ids extend both its user's and its item's document.  No token spans a
review boundary, and lowercasing maps each character on its own (Greek
final sigma aside, which is not in [a-z0-9]), so a side's document is the
token sequence of its reviews joined with spaces, less the tokens outside
the vocabulary, truncated to max_len.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from array import array
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize

# Maps each byte in [a-z0-9] to itself and every other byte to a space.
TOKEN_BYTES = bytes(b if b in b"0123456789abcdefghijklmnopqrstuvwxyz" else 0x20 for b in range(256))
JSON_WHITESPACE = " \t\n\r"

BUNDLE_MAGIC = b"BCMFCORP"
BUNDLE_VERSION = 3  # 3: documents stored ragged; older files are refused

# Defaults for the text pipeline; the CLI config can override all of them.
DEFAULT_MAX_VOCAB = 8000
DEFAULT_MIN_DOC_FREQ = 1
DEFAULT_MAX_LEN = 300


class ReviewParseError(ValueError):
    """A malformed input line, with its 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class EmbeddingFormatError(ValueError):
    """Pretrained embedding file does not match the expected text format."""


ReviewRecord = namedtuple("ReviewRecord", "user_id item_id rating review_text", defaults=("",))


@dataclass(frozen=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_ratings: int
    density: float

    @property
    def density_percent(self) -> float:
        return 100.0 * self.density


_decode = json.JSONDecoder().raw_decode


def parse_reviews(source):
    """Yield ReviewRecords from a JSON-lines file path or an iterable of lines.

    Each line must be a JSON object with non-empty string reviewerID and
    asin and a finite numeric overall in [1, 5]; a missing reviewText
    becomes the empty string.  A malformed line, or one that is not valid
    UTF-8, raises ReviewParseError with its line number.  Lines are read as
    json.loads reads them: JSON whitespace around the object is allowed,
    anything else after it is "Extra data".
    """
    if isinstance(source, (str, Path)):
        # undecodable bytes come through as lone surrogates, refused below
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            yield from parse_reviews(fh)
        return
    for line_no, line in enumerate(source, start=1):
        text = line.strip(JSON_WHITESPACE)
        try:
            text.encode("utf-8")
            obj, end = _decode(text)
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
        except UnicodeEncodeError:
            raise ReviewParseError(line_no, "not valid UTF-8") from None
        except json.JSONDecodeError as exc:
            reason = exc.msg
            if text.startswith("\ufeff"):
                reason = "Unexpected UTF-8 BOM (decode using utf-8-sig)"   # json.loads's words
            raise ReviewParseError(line_no, f"invalid JSON ({reason})") from None
        except ValueError as exc:   # an integer literal past Python's digit limit
            raise ReviewParseError(line_no, f"invalid JSON ({exc})") from None
        except RecursionError:
            raise ReviewParseError(line_no, "invalid JSON (nested too deeply)") from None
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
    try:
        rating = float(rating)
    except OverflowError:   # an integer beyond the float range
        rating = float("inf") if rating > 0 else float("-inf")
    if not 1.0 <= rating <= 5.0:    # NaN and the infinities fail this too
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


def load_pretrained_embeddings(path, vocab: tuple[str, ...], embedding_dim: int,
                               seed: int = 0) -> np.ndarray:
    """Load a text-format word-vector file into a (size+1, dim) table.

    Format: optional header line "count dim", then one line per word: the
    token followed by dim space-separated floats.  Vocabulary tokens missing
    from the file get a seeded Uniform(-0.25, 0.25) vector; row 0 (padding)
    is all zeros.  A dimension mismatch is an error naming both dims; a line
    that is not valid UTF-8, or holds a non-finite value, names its number.
    """
    vectors: dict[str, np.ndarray] = {}
    wanted = set(vocab)
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
            if token in wanted and token not in vectors:
                try:
                    vec = np.array([float(v) for v in vals], dtype=np.float64)
                    if not np.isfinite(vec).all():
                        raise ValueError("not a finite number")
                except ValueError as exc:
                    raise EmbeddingFormatError(f"bad vector value at line {line_no}: {exc}") from None
                vectors[token] = vec
    table = np.zeros((len(vocab) + 1, embedding_dim), dtype=np.float64)
    rng = np.random.default_rng(seed)
    for i, token in enumerate(vocab, start=1):
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


class Documents:
    """Token-id documents stored ragged: document i is
    tokens[offsets[i]:offsets[i] + lens[i]], every document right after the
    one before, so offsets are the exclusive prefix sums of lens.  It holds
    the arrays it is given, uncopied; offsets are computed once."""

    def __init__(self, tokens: np.ndarray, lens: np.ndarray):
        self.tokens = tokens
        self.lens = lens
        self.offsets = np.cumsum(lens, dtype=np.int64) - lens

    def __len__(self) -> int:
        return len(self.lens)

    def gather(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """The token ids of documents idx, back to back in that order, and their lengths."""
        lens = self.lens[idx]
        pos = np.repeat(self.offsets[idx] - (np.cumsum(lens, dtype=np.int64) - lens), lens)
        pos += np.arange(len(pos))
        return self.tokens[pos], lens


@serialize.container(BUNDLE_MAGIC, BUNDLE_VERSION)
@dataclass
class CorpusBundle:
    """Everything training needs, so it never re-tokenizes.

    Documents and the vocabulary are derived from the training split alone;
    the test triplets are carried for evaluation only.
    """

    vocab: tuple[str, ...]      # token i + 1 is vocab[i]; 0 is padding and OOV
    max_len: int
    user_ids: list[str]
    item_ids: list[str]
    user_tokens: np.ndarray     # int32: the user documents back to back (see Documents)
    user_doc_lens: np.ndarray   # (n_users,) int32
    item_tokens: np.ndarray
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

    def __post_init__(self):
        """Refuse arrays that disagree with the ids, the vocabulary or max_len."""
        check = serialize.check_array
        n_users, n_items, size = self.n_users, self.n_items, len(self.vocab)
        for side, n in (("user", n_users), ("item", n_items)):
            tokens, lens = getattr(self, f"{side}_tokens"), getattr(self, f"{side}_doc_lens")
            check(f"{side}_doc_lens", lens, (n,), integer=True, lo=0, hi=self.max_len)
            if np.ndim(tokens) != 1 or len(tokens) != lens.sum():
                raise ValueError(f"{side}_doc_lens sum to {lens.sum()}, "
                                 f"but {side}_tokens has shape {np.shape(tokens)}")
            check(f"{side}_tokens", tokens, (len(tokens),), integer=True, lo=1, hi=size)
        for split, users, items, ratings in (
                ("train", self.train_user_idx, self.train_item_idx, self.train_ratings),
                ("test", self.test_user_idx, self.test_item_idx, self.test_ratings)):
            n = len(ratings)
            check(f"{split}_user_idx", users, (n,), integer=True, lo=0, hi=n_users - 1)
            check(f"{split}_item_idx", items, (n,), integer=True, lo=0, hi=n_items - 1)
            check(f"{split}_ratings", ratings, (n,), lo=1.0, hi=5.0)

    @functools.cached_property
    def user_docs(self) -> Documents:
        """The user documents: one object per bundle, holding its arrays."""
        return Documents(self.user_tokens, self.user_doc_lens)

    @functools.cached_property
    def item_docs(self) -> Documents:
        """The item documents: one object per bundle, holding its arrays."""
        return Documents(self.item_tokens, self.item_doc_lens)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def train_digest(self) -> str:
        """SHA-256 of the training triplets, in order: a checkpoint records
        it, so that evaluate can tell the split a model was trained on."""
        h = hashlib.sha256()
        for arr, dtype in ((self.train_user_idx, np.int64), (self.train_item_idx, np.int64),
                           (self.train_ratings, np.float64)):
            h.update(np.ascontiguousarray(arr, dtype).tobytes())
        return h.hexdigest()


def build_bundle(records: list[ReviewRecord], train_idx, test_idx,
                 max_vocab: int = DEFAULT_MAX_VOCAB,
                 min_doc_freq: int = DEFAULT_MIN_DOC_FREQ,
                 max_len: int = DEFAULT_MAX_LEN,
                 test_fraction: float = 0.2,
                 split_seed: int = 0) -> CorpusBundle:
    """Assemble the corpus bundle from records plus a train/test index split.

    Ids are mapped in first-appearance order over all records.  The
    vocabulary and the documents come from the training records only; users
    or items that appear only in test get empty documents.

    The vocabulary ranks tokens by total frequency, ties lexicographic, and
    keeps the first max_vocab of those that appear in at least min_doc_freq
    documents (user and item documents both count).  A document holds the
    vocabulary indices (from 1) of its first max_len in-vocabulary tokens:
    out-of-vocabulary tokens neither occupy a position nor count toward
    max_len.
    """
    if max_vocab < 1:
        raise ValueError(f"max_vocab must be >= 1, got {max_vocab}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
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

    users, items, ratings, texts = zip(*records)
    user_pos = defaultdict(itertools.count().__next__)
    item_pos = defaultdict(itertools.count().__next__)
    rec_user = np.fromiter(map(user_pos.__getitem__, users), np.int32, n)
    rec_item = np.fromiter(map(item_pos.__getitem__, items), np.int32, n)
    rec_rating = np.array(ratings, dtype=np.float64)
    user_ids = list(user_pos)
    item_ids = list(item_pos)
    train_user, train_item = rec_user[train_idx], rec_item[train_idx]

    # Every training review's token ids, in record order, and its token count;
    # ids number the distinct tokens by first appearance.
    token_pos = defaultdict(itertools.count().__next__)
    ids, counts = array("i"), array("i")
    for k in train_idx.tolist():
        toks = texts[k].lower().encode("utf-8", "surrogatepass").translate(TOKEN_BYTES).split()
        ids.extend(map(token_pos.__getitem__, toks))
        counts.append(len(toks))
    del users, items, ratings, texts
    tokens = list(token_pos)
    ids = np.frombuffer(ids, dtype=np.int32)
    counts = np.frombuffer(counts, dtype=np.int32)

    doc_freq = (_owners_per_token(ids, counts, train_user, len(user_ids), len(tokens))
                + _owners_per_token(ids, counts, train_item, len(item_ids), len(tokens)))
    eligible = np.flatnonzero(doc_freq >= min_doc_freq)
    lex_rank = np.empty(len(tokens), dtype=np.int64)
    lex_rank[sorted(range(len(tokens)), key=tokens.__getitem__)] = np.arange(len(tokens))
    total = np.bincount(ids, minlength=len(tokens))
    chosen = eligible[np.lexsort((lex_rank[eligible], -total[eligible]))][:max_vocab]
    vocab = tuple(tokens[t].decode("ascii") for t in chosen.tolist())
    del tokens, token_pos, lex_rank, total

    # The in-vocabulary indices of each review, and how many it has.
    index = np.zeros(len(doc_freq), dtype=np.int32)
    index[chosen] = np.arange(1, len(chosen) + 1, dtype=np.int32)
    ids = index[ids]
    in_vocab = ids != 0
    review = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    review_kept = np.bincount(review[in_vocab], minlength=len(counts))
    ids = ids[in_vocab]
    del in_vocab, review

    user_tokens, user_doc_lens = _documents(ids, review_kept, train_user, len(user_ids), max_len)
    item_tokens, item_doc_lens = _documents(ids, review_kept, train_item, len(item_ids), max_len)
    stats = DatasetStats(len(user_ids), len(item_ids), n, n / (len(user_ids) * len(item_ids)))
    return CorpusBundle(
        vocab=vocab, max_len=max_len, user_ids=user_ids, item_ids=item_ids,
        user_tokens=user_tokens, user_doc_lens=user_doc_lens,
        item_tokens=item_tokens, item_doc_lens=item_doc_lens,
        train_user_idx=train_user, train_item_idx=train_item,
        train_ratings=rec_rating[train_idx],
        test_user_idx=rec_user[test_idx], test_item_idx=rec_item[test_idx],
        test_ratings=rec_rating[test_idx],
        stats=stats, test_fraction=test_fraction, split_seed=split_seed,
    )


def _owners_per_token(ids, counts, owner, n_owners: int, n_tokens: int) -> np.ndarray:
    """How many owners (users, or items) have each token id in their reviews.

    ids are the reviews' token ids end to end, counts each review's number
    of tokens and owner each review's owner.  The (owner, token) pairs are
    counted once each, by sorting.
    """
    dtype = np.int32 if n_owners * n_tokens < 2**31 else np.int64
    pairs = np.repeat(owner.astype(dtype), counts)
    pairs *= n_tokens
    pairs += ids
    pairs.sort()
    first = np.ones(len(pairs), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    pairs = pairs[first]
    pairs %= n_tokens
    return np.bincount(pairs, minlength=n_tokens)


def _documents(ids, review_kept, owner, n_owners: int, max_len: int):
    """The owners' documents back to back, in owner order (see Documents),
    and their lengths: an owner's document is its reviews' ids in record
    order, truncated to max_len.

    ids are the reviews' kept token ids end to end, review_kept each
    review's number of them and owner each review's owner.  The per-token
    index is int32 wherever ids has fewer than 2**31 entries.
    """
    order = np.argsort(owner, kind="stable")
    own = owner[order]
    n_kept = review_kept[order]
    start = np.cumsum(n_kept) - n_kept                  # in the owner-sorted stream
    offset = start - start[np.searchsorted(own, own)]   # inside the owner's document
    n_copied = np.clip(max_len - offset, 0, n_kept)
    first = (np.cumsum(review_kept) - review_kept)[order]       # each review's first id
    dtype = np.int32 if len(ids) < 2**31 else np.int64
    src = np.repeat((first - (np.cumsum(n_copied) - n_copied)).astype(dtype), n_copied)
    src += np.arange(len(src), dtype=dtype)
    lens = np.bincount(own, weights=n_copied, minlength=n_owners).astype(np.int32)
    return ids[src], lens


def save_bundle(bundle: CorpusBundle, path) -> None:
    serialize.save(bundle, path)


def load_bundle(path) -> CorpusBundle:
    return serialize.load(CorpusBundle, path)
