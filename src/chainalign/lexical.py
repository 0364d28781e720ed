"""String-level similarity between edge labels, and the weight it gives a
pair of label sets.

``levenshtein`` is the classic insert/delete/substitute edit distance of
two strings. ``levenshtein_matrix`` gives the same distance for every
pair of two label lists at once: the Wagner-Fischer recurrence (J. ACM,
1974) run as one step per character of the left-hand labels, over all
pairs together, in blocks of left-hand labels that keep each working
array near 2^18 int32 cells. Its DP columns are the arrays' leading axis,
so each column of a block is one contiguous row over all its pairs.
``label_distances`` normalizes two label lists and scores each distinct
pair once through the matrix form. ``similarity_of_distance`` maps a
distance L to a score sigma in (0, 1]:

    1    if L = 0
    3/4  if L = 1
    1/L  otherwise

``label_set_weights`` is the one place labels become chain weights. For
every pair of label sets it takes the least distance d between their
labels and returns the edge-confidence weight 1/sigma(d) when
sigma(d) >= ``gamma``, else 0, so its nonzero range is [1, 1/gamma].
The weight is 1 exactly when d = 0, for every gamma in [0, 1], which is
similarity flooding's rule: its pair graph keeps the weights equal to 1.
Downstream row normalization decides how those raw weights are turned
into transition probabilities. ``edit_similarity``, ``label_set_confidence``
and ``labels_share_exact_match`` are the same rules for a single pair of
labels or label sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Sequence

import numpy as np


class LabelNorm(str, Enum):
    """How labels are canonicalized before comparison."""

    NONE = "none"
    FOLD = "fold"  # casefold + strip '_', '-' and spaces


@dataclass(frozen=True)
class SimilarityConfig:
    gamma: float = 0.5
    label_normalization: LabelNorm = LabelNorm.FOLD

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        object.__setattr__(self, "label_normalization", LabelNorm(self.label_normalization))


_SEPARATORS = str.maketrans("", "", "_- ")


def normalize_label(label: str, cfg: SimilarityConfig) -> str:
    if cfg.label_normalization is LabelNorm.NONE:
        return label
    return label.casefold().translate(_SEPARATORS)


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit cost for insert, delete and substitute."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            )
        previous = current
    return previous[len(b)]


# cells of the (longest b + 1, rows, len(b)) working array per block of rows of a
_BLOCK_CELLS = 1 << 18


def _code_points(labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points of each label, right-padded with zeros, and the lengths."""
    lengths = np.array([len(s) for s in labels], dtype=np.int64)
    points = np.zeros((len(labels), int(lengths.max(initial=0))), dtype=np.int32)
    # row-major fill of each row's first len(s) cells; surrogatepass keeps a
    # lone surrogate as its own code point, as ord() does
    points[np.arange(points.shape[1]) < lengths[:, None]] = np.frombuffer(
        "".join(labels).encode("utf-32-le", "surrogatepass"), dtype=np.int32)
    return points, lengths


def levenshtein_matrix(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
    """``levenshtein(a[i], b[j])`` for every pair, as an int array of shape (len(a), len(b)).

    The working arrays have shape (longest b + 1, rows, len(b)), so DP
    column j of every pair in a block of left-hand labels is one
    contiguous row. Step k, for character k of the left-hand labels, sets
    column 0 to k, takes the deletion and substitution terms
    min(prev[j] + 1, prev[j-1] + (a_k != b_j)) for all columns at once,
    then adds the insertion term cur[j-1] + 1 column by column. Each
    pair's distance is read after step len(a[i]) at column len(b[j]),
    which depend on no padded character, so the padding value does not
    matter.
    """
    out = np.empty((len(a), len(b)), dtype=np.int32)
    if not len(a) or not len(b):
        return out
    points_b, len_b = _code_points(b)
    width = points_b.shape[1] + 1
    # character j of every b label, against DP column j + 1
    points_b = np.ascontiguousarray(points_b.T)[:, None, :]
    pairs = np.arange(len(b))
    block = max(1, _BLOCK_CELLS // (len(b) * width))
    for start in range(0, len(a), block):
        points_a, len_a = _code_points(a[start:start + block])
        rows = len(len_a)
        dist = out[start:start + rows]
        dist[len_a == 0] = len_b
        prev = np.empty((width, rows, len(b)), dtype=np.int32)
        prev[:] = np.arange(width, dtype=np.int32)[:, None, None]
        cur = np.empty_like(prev)
        for k in range(1, points_a.shape[1] + 1):
            # in place, as fresh temporaries this size cost more than the
            # arithmetic; prev is overwritten in the next step anyway
            cur[0] = k
            np.not_equal(points_b, points_a[:, k - 1, None], out=cur[1:])
            cur[1:] += prev[:-1]
            prev += 1
            np.minimum(cur[1:], prev[1:], out=cur[1:])
            for j in range(1, width):
                np.minimum(cur[j], cur[j - 1] + 1, out=cur[j])
            prev, cur = cur, prev
            done = np.flatnonzero(len_a == k)
            dist[done] = prev[len_b, done[:, None], pairs]
    return out


def similarity_of_distance(dist: np.ndarray | int) -> np.ndarray:
    """sigma of edit distances L, as floats: 1 at L = 0, 3/4 at L = 1, 1/L beyond."""
    dist = np.asarray(dist)
    return np.where(dist == 0, 1.0, np.where(dist == 1, 0.75, 1.0 / np.maximum(dist, 1)))


def edit_similarity(a: str, b: str) -> float:
    """Similarity in (0, 1] derived from the edit distance."""
    return float(similarity_of_distance(levenshtein(a, b)))


def _distinct(labels: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct labels in first-seen order, and each label's index among them."""
    ids: dict[str, int] = {}
    inverse = [ids.setdefault(s, len(ids)) for s in labels]
    return list(ids), np.array(inverse, dtype=np.intp)


def label_distances(labels1: Sequence[str], labels2: Sequence[str],
                    cfg: SimilarityConfig) -> np.ndarray:
    """Edit distance between the normalized forms of every pair of labels,
    shape (len(labels1), len(labels2)); each distinct pair is scored once."""
    distinct1, at1 = _distinct([normalize_label(s, cfg) for s in labels1])
    distinct2, at2 = _distinct([normalize_label(s, cfg) for s in labels2])
    return levenshtein_matrix(distinct1, distinct2)[np.ix_(at1, at2)]


def label_set_weights(sets1: Sequence[Collection[str]], sets2: Sequence[Collection[str]],
                      cfg: SimilarityConfig) -> np.ndarray:
    """Edge-confidence weight of every pair of non-empty label sets, shape
    (len(sets1), len(sets2)).

    A pair's weight depends only on the least edit distance d between
    their normalized labels, because sigma falls strictly as d grows:
    1/sigma(d) when sigma(d) >= gamma, else 0.
    """
    dist = label_distances([s for group in sets1 for s in group],
                           [s for group in sets2 for s in group], cfg)
    # minimum over each set's rows, then over each set's columns
    starts1 = np.cumsum([0] + [len(group) for group in sets1[:-1]])
    starts2 = np.cumsum([0] + [len(group) for group in sets2[:-1]])
    dist = np.minimum.reduceat(np.minimum.reduceat(dist, starts1, axis=0), starts2, axis=1)
    sigma = similarity_of_distance(dist)
    return np.where(sigma >= cfg.gamma, 1.0 / sigma, 0.0)


def label_set_confidence(s1: Collection[str], s2: Collection[str],
                         cfg: SimilarityConfig | None = None) -> float:
    """Confidence of the most similar label pair across two label sets.

    The pair with maximal sigma wins; its edge confidence is returned.
    0 when either set is empty or no pair reaches gamma.
    """
    if not s1 or not s2:
        return 0.0
    return float(label_set_weights([s1], [s2], cfg or SimilarityConfig())[0, 0])


def labels_share_exact_match(s1: Collection[str], s2: Collection[str],
                             cfg: SimilarityConfig | None = None) -> bool:
    """True when the two sets share an identical label after normalization,
    which is when their edge confidence is 1."""
    return label_set_confidence(s1, s2, cfg) == 1.0
