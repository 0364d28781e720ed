"""String-level similarity between edge labels.

``levenshtein`` is the classic insert/delete/substitute edit distance of
two strings. ``levenshtein_matrix`` gives the same distance for every
pair of two label lists at once: the Wagner-Fischer recurrence (J. ACM,
1974) run as one numpy step per character of the left-hand labels, over
all pairs together, in blocks of left-hand labels that keep the working
array near 2^18 int32 cells. The pipeline scores labels through the
matrix form; the scalar one remains for single pairs.
``edit_similarity`` maps a distance L to a score in (0, 1]:

    1    if L = 0
    3/4  if L = 1
    1/L  otherwise

``edge_confidence`` thresholds that score at ``gamma`` and returns the
reciprocal 1/sigma for passing pairs, 0 otherwise, so its nonzero range
is [1, 1/gamma]. Downstream row normalization decides how those raw
weights are turned into transition probabilities.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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


def edit_similarity(a: str, b: str) -> float:
    """Similarity in (0, 1] derived from the edit distance."""
    dist = levenshtein(a, b)
    if dist == 0:
        return 1.0
    if dist == 1:
        return 0.75
    return 1.0 / dist


def similarity_of_distance(dist: np.ndarray) -> np.ndarray:
    """``edit_similarity`` over an array of edit distances, as the same floats."""
    return np.where(dist == 0, 1.0, np.where(dist == 1, 0.75, 1.0 / np.maximum(dist, 1)))


def edge_confidence(a: str, b: str, cfg: SimilarityConfig | None = None) -> float:
    """Thresholded reciprocal similarity between two edge labels.

    Returns 1/sigma when sigma(a, b) >= gamma (computed on normalized
    labels), else 0. Labels must be non-empty after normalization.
    """
    cfg = cfg or SimilarityConfig()
    na, nb = normalize_label(a, cfg), normalize_label(b, cfg)
    if not na or not nb:
        raise ValueError(f"labels must be non-empty after normalization: {a!r}, {b!r}")
    sigma = edit_similarity(na, nb)
    if sigma >= cfg.gamma:
        return 1.0 / sigma
    return 0.0


def label_set_confidence(
    s1: set[str] | frozenset[str],
    s2: set[str] | frozenset[str],
    cfg: SimilarityConfig | None = None,
) -> float:
    """Confidence of the most similar label pair across two label sets.

    The pair with maximal sigma wins; its edge confidence is returned.
    0 when either set is empty or no pair reaches gamma.
    """
    cfg = cfg or SimilarityConfig()
    if not s1 or not s2:
        return 0.0
    best = 0.0
    for a in s1:
        na = normalize_label(a, cfg)
        for b in s2:
            sigma = edit_similarity(na, normalize_label(b, cfg))
            if sigma > best:
                best = sigma
    if best >= cfg.gamma and best > 0.0:
        return 1.0 / best
    return 0.0


def labels_share_exact_match(
    s1: set[str] | frozenset[str],
    s2: set[str] | frozenset[str],
    cfg: SimilarityConfig | None = None,
) -> bool:
    """True when the two sets share an identical label after normalization."""
    cfg = cfg or SimilarityConfig()
    n1 = {normalize_label(a, cfg) for a in s1}
    n2 = {normalize_label(b, cfg) for b in s2}
    return bool(n1 & n2)
