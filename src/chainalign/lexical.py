"""String-level similarity between edge labels, and the weight it gives a
pair of label sets.

``levenshtein`` is the classic insert/delete/substitute edit distance of
two strings. ``levenshtein_matrix`` gives the same distance for every
pair of two label lists at once: the Wagner-Fischer recurrence (J. ACM,
1974) run as one numpy step per character of the left-hand labels, over
all pairs together, in blocks of left-hand labels that keep the working
array near 2^18 int32 cells. ``label_distances`` normalizes two label
lists and scores each distinct pair once through the matrix form.
``similarity_of_distance`` maps a distance L to a score sigma in (0, 1]:

    1    if L = 0
    3/4  if L = 1
    1/L  otherwise

``label_set_weights`` is the one place labels become chain weights. For
every pair of label sets it takes the least distance d between their
labels and returns the edge-confidence weight 1/sigma(d) when
sigma(d) >= ``gamma``, else 0, so its nonzero range is [1, 1/gamma]; or
similarity flooding's weight, 1 on an exact match (d = 0), else 0.
Downstream row normalization decides how those raw weights are turned
into transition probabilities. ``edit_similarity``, ``edge_confidence``,
``label_set_confidence`` and ``labels_share_exact_match`` are the same
rules for a single pair of labels or label sets.
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


# cells of the (rows, len(b), longest b + 1) working array per block of rows of a
_BLOCK_CELLS = 1 << 18


def _code_points(labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points of each label, right-padded with zeros, and the lengths."""
    lengths = np.array([len(s) for s in labels], dtype=np.int64)
    points = np.zeros((len(labels), int(lengths.max(initial=0))), dtype=np.int32)
    for i, s in enumerate(labels):
        points[i, :len(s)] = [ord(c) for c in s]
    return points, lengths


def levenshtein_matrix(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
    """``levenshtein(a[i], b[j])`` for every pair, as an int array of shape (len(a), len(b)).

    Row k of the recurrence is computed for all pairs at once. Its
    insertion term cur[j] = min(best[j], cur[j-1] + 1) unrolls to
    j + min over j' <= j of (best[j'] - j'), a running minimum. Each pair's
    distance is read at row len(a[i]), column len(b[j]), which depend on
    no padded character, so the padding value does not matter.
    """
    out = np.empty((len(a), len(b)), dtype=np.int32)
    if not len(a) or not len(b):
        return out
    points_b, len_b = _code_points(b)
    cols = np.arange(points_b.shape[1] + 1, dtype=np.int32)
    pairs = np.arange(len(b))
    block = max(1, _BLOCK_CELLS // (len(b) * len(cols)))
    for start in range(0, len(a), block):
        points_a, len_a = _code_points(a[start:start + block])
        rows = len(len_a)
        dist = out[start:start + rows]
        dist[len_a == 0] = len_b
        prev = np.broadcast_to(cols, (rows, len(b), len(cols)))
        best = np.empty((rows, len(b), len(cols)), dtype=np.int32)
        for k in range(1, points_a.shape[1] + 1):
            ch = points_a[:, k - 1, None, None]
            best[..., 0] = k
            np.minimum(prev[..., 1:] + 1, prev[..., :-1] + (points_b != ch), out=best[..., 1:])
            prev = cols + np.minimum.accumulate(best - cols, axis=2)
            done = len_a == k
            dist[done] = prev[done][:, pairs, len_b]
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
                      cfg: SimilarityConfig, exact: bool = False) -> np.ndarray:
    """Weight of every pair of non-empty label sets, shape (len(sets1), len(sets2)).

    A pair's weight depends only on the least edit distance d between
    their normalized labels, because sigma falls strictly as d grows:
    1/sigma(d) when sigma(d) >= gamma, else 0. With ``exact``, similarity
    flooding's rule: 1 when d = 0, that is when the sets share a
    normalized label, else 0.
    """
    dist = label_distances([s for group in sets1 for s in group],
                           [s for group in sets2 for s in group], cfg)
    # minimum over each set's rows, then over each set's columns
    starts1 = np.cumsum([0] + [len(group) for group in sets1[:-1]])
    starts2 = np.cumsum([0] + [len(group) for group in sets2[:-1]])
    dist = np.minimum.reduceat(np.minimum.reduceat(dist, starts1, axis=0), starts2, axis=1)
    if exact:
        return np.where(dist == 0, 1.0, 0.0)
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
    """True when the two sets share an identical label after normalization."""
    if not s1 or not s2:
        return False
    return bool(label_set_weights([s1], [s2], cfg or SimilarityConfig(), exact=True)[0, 0])


def edge_confidence(a: str, b: str, cfg: SimilarityConfig | None = None) -> float:
    """Thresholded reciprocal similarity between two edge labels.

    Returns 1/sigma when sigma(a, b) >= gamma (computed on normalized
    labels), else 0. Labels must be non-empty after normalization.
    """
    cfg = cfg or SimilarityConfig()
    if not normalize_label(a, cfg) or not normalize_label(b, cfg):
        raise ValueError(f"labels must be non-empty after normalization: {a!r}, {b!r}")
    return label_set_confidence({a}, {b}, cfg)
