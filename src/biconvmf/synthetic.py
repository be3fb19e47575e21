"""Seeded synthetic review corpus for desk-scale experiments and tests.

Generates JSON-lines records shaped like the Amazon review dumps
(reviewerID, asin, overall, reviewText).  Ratings follow a simple latent
structure that the review text genuinely reflects:

  * every item has a topic and a base quality,
  * every user has a favorite topic and a harshness offset,
  * the rating is quality + topic-match bonus + harshness + noise,
  * the review text mixes the item's topic words, sentiment words keyed to
    the awarded rating, the user's favorite-topic words, and filler.

Because user text carries user-side signal (harshness, taste) and item text
carries item-side signal (topic, quality), text-aware factorizations have
something real to exploit, and the user-degree distribution is skewed so
most users rate only once or twice, as in the real slices this mimics.
"""

from __future__ import annotations

import json

import numpy as np

TOPIC_WORDS = [
    ["space", "alien", "galaxy", "starship", "orbit", "laser", "astronaut", "nebula"],
    ["sword", "kingdom", "dragon", "wizard", "quest", "castle", "prophecy", "throne"],
    ["detective", "murder", "clue", "suspect", "noir", "alibi", "stakeout", "motive"],
    ["romance", "wedding", "heartbreak", "chemistry", "kiss", "longing", "sweetheart", "devotion"],
    ["battle", "soldier", "trench", "regiment", "siege", "valor", "armistice", "commander"],
    ["slapstick", "punchline", "gag", "parody", "deadpan", "hilarity", "prank", "improv"],
]

SENTIMENT_WORDS = {
    1: ["dreadful", "unwatchable", "awful", "insulting", "torture", "garbage"],
    2: ["weak", "tedious", "disappointing", "muddled", "forgettable", "shallow"],
    3: ["okay", "passable", "uneven", "average", "watchable", "middling"],
    4: ["solid", "engaging", "enjoyable", "sharp", "satisfying", "strong"],
    5: ["masterpiece", "stunning", "flawless", "riveting", "magnificent", "perfect"],
}

FILLER_WORDS = [
    "movie", "film", "the", "a", "watched", "plot", "scene", "acting", "cast",
    "story", "ending", "director", "script", "it", "was", "really", "again",
    "night", "picture", "screen",
]

# Degree profile: (user share, ratings per user); most users rate once.
DEGREE_PROFILE = [(0.45, 1), (0.27, 2), (0.16, 3), (0.08, 5), (0.04, 8)]

REVIEW_LEN_RANGE = (10, 26)  # words per review, both ends inclusive


def synthetic_review_corpus(n_users: int = 900, n_items: int = 120, seed: int = 0) -> list[dict]:
    """Generate review records in file order; length follows the degree profile."""
    rng = np.random.default_rng(seed)
    n_topics = len(TOPIC_WORDS)

    item_topic = rng.integers(0, n_topics, n_items)
    item_quality = rng.uniform(2.2, 4.6, n_items)
    item_weight = rng.zipf(1.6, n_items).astype(np.float64)  # popularity skew
    item_weight /= item_weight.sum()

    user_topic = rng.integers(0, n_topics, n_users)
    user_harsh = np.clip(rng.normal(0.0, 0.65, n_users), -1.6, 1.6)

    degrees = np.ones(n_users, dtype=np.int64)
    shares = np.cumsum([s for s, _ in DEGREE_PROFILE])
    draw = rng.random(n_users)
    for share, deg in zip(shares, [d for _, d in DEGREE_PROFILE]):
        degrees[draw <= share] = deg
        draw[draw <= share] = 2.0  # already assigned

    pairs = []
    for u in range(n_users):
        items = rng.choice(n_items, size=degrees[u], replace=False, p=item_weight)
        pairs.extend((u, int(j)) for j in items)
    order = rng.permutation(len(pairs))

    records = []
    for idx in order:
        u, j = pairs[idx]
        match = 1.0 if user_topic[u] == item_topic[j] else -0.5
        raw = item_quality[j] + match + user_harsh[u] + rng.normal(0.0, 0.35)
        rating = int(np.clip(np.rint(raw), 1, 5))
        records.append({
            "reviewerID": f"U{u:05d}",
            "asin": f"I{j:04d}",
            "overall": float(rating),
            "reviewText": _review_text(rng, item_topic[j], user_topic[u], rating),
            "unixReviewTime": int(1_300_000_000 + idx * 86_400),
        })
    return records


def _review_text(rng, item_topic: int, user_topic: int, rating: int) -> str:
    n = int(rng.integers(REVIEW_LEN_RANGE[0], REVIEW_LEN_RANGE[1] + 1))
    n_topic = max(2, int(0.35 * n))
    n_sent = max(2, int(0.30 * n))
    n_fav = max(1, int(0.10 * n))
    n_fill = max(1, n - n_topic - n_sent - n_fav)
    words = list(rng.choice(TOPIC_WORDS[item_topic], n_topic))
    words += list(rng.choice(SENTIMENT_WORDS[rating], n_sent))
    words += list(rng.choice(TOPIC_WORDS[user_topic], n_fav))
    words += list(rng.choice(FILLER_WORDS, n_fill))
    rng.shuffle(words)
    return " ".join(words)


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
