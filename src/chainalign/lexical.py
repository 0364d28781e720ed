"""String-level similarity between edge labels, and the weight it gives a
pair of label sets.

``levenshtein`` is the classic insert/delete/substitute edit distance of
two strings. ``levenshtein_matrix`` gives the same distance for every
pair of two label lists at once: the Wagner-Fischer recurrence (J. ACM,
1974) run as one step per character of the left-hand labels, over all
pairs together, in blocks that keep each working array near 2^18 int32
cells. Its DP columns are the arrays' leading axis, so each column of a
block is one contiguous row over all its pairs. One blocked driver runs
it over either a grid, every pair of the two lists, or a list of pairs.
Given a cutoff K it returns min(distance, K + 1), Ukkonen's cut-off
distance (Inf. & Control, 1985): the bag distance of every pair
(Bartolini, Ciaccia and Patella, SPIRE 2002), an exact lower bound on
the edit distance computed from character counts as one matrix product,
rules out the pairs past K, and only the rest run through the
recurrence, as a list of pairs.
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
Since sigma falls strictly as L grows, only distances up to the cutoff K
matter: the largest L, up to the longest label, with sigma(L) >= gamma
(2 at the default gamma = 0.5). K is found by evaluating
``similarity_of_distance`` itself, so it agrees with the weight test at
every float gamma; every distance past K, given as K + 1, weighs 0.
The weight is 1 exactly when d = 0, for every gamma in [0, 1], which is
similarity flooding's rule: its pair graph keeps the weights equal to 1.
Downstream row normalization decides how those raw weights are turned
into transition probabilities. ``edit_similarity``, ``label_set_confidence``
and ``labels_share_exact_match`` are the same rules for a single pair of
labels or label sets.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Sequence

import numpy as np
from scipy import sparse


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


# cells per block of each working array: the DP columns, (longest b + 1,
# rows, len(b)) for a grid and (longest b + 1, pairs) for a pair list, and
# the bag bound's (rows, len(b)) and (tokens, rows)
_BLOCK_CELLS = 1 << 18


def _code_points(labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points of each label, right-padded with -1, which is no code
    point, and the lengths."""
    lengths = np.array([len(s) for s in labels], dtype=np.int64)
    points = np.full((len(labels), int(lengths.max(initial=0))), -1, dtype=np.int32)
    # row-major fill of each row's first len(s) cells; surrogatepass keeps a
    # lone surrogate as its own code point, as ord() does
    points[np.arange(points.shape[1]) < lengths[:, None]] = np.frombuffer(
        "".join(labels).encode("utf-32-le", "surrogatepass"), dtype=np.int32)
    return points, lengths


def _wagner_fischer(steps_a: np.ndarray, columns_b: np.ndarray):
    """The Wagner-Fischer recurrence over a batch of label pairs, a block
    of a grid or of a pair list as ``_distances`` hands them.

    ``steps_a[k - 1]`` holds character k of each pair's left-hand label and
    ``columns_b[j - 1]`` character j of its right-hand one, both broadcast
    to the batch's shape. After step k this yields k and the working array
    whose entry [j, ...] is the distance from the first k characters of the
    left-hand label to the first j of the right-hand one: DP column j of
    every pair is one contiguous row. Step k sets column 0 to k, takes the
    deletion and substitution terms min(prev[j] + 1, prev[j-1] + (a_k != b_j))
    for all columns at once, then adds the insertion term cur[j-1] + 1
    column by column. A pair's distance is read after step len(left) at
    column len(right), which depend on no padded character, so the padding
    value does not matter.
    """
    width = len(columns_b) + 1
    shape = (width, *np.broadcast_shapes(steps_a.shape[1:], columns_b.shape[1:]))
    prev = np.empty(shape, dtype=np.int32)
    prev[:] = np.arange(width, dtype=np.int32).reshape((width,) + (1,) * (len(shape) - 1))
    cur = np.empty_like(prev)
    for k in range(1, len(steps_a) + 1):
        # in place, as fresh temporaries this size cost more than the
        # arithmetic; prev is overwritten in the next step anyway
        cur[0] = k
        np.not_equal(columns_b, steps_a[k - 1], out=cur[1:])
        cur[1:] += prev[:-1]
        prev += 1
        np.minimum(cur[1:], prev[1:], out=cur[1:])
        for j in range(1, width):
            np.minimum(cur[j], cur[j - 1] + 1, out=cur[j])
        prev, cur = cur, prev
        yield k, prev


def _distances(points_a, len_a, points_b, len_b, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The distance of left-hand label i to right-hand label j, over ``i``
    and ``j`` broadcast together: two (pairs,) arrays for a pair list, or
    (rows, 1) against (1, columns) for a grid. ``i`` spans the first axis,
    along which blocks run, each keeping its working arrays (longest b + 1,
    *block) near ``_BLOCK_CELLS``."""
    out = np.empty(np.broadcast_shapes(i.shape, j.shape), dtype=np.int32)
    out[:] = len_b[j]  # the distance from an empty label
    block = max(1, _BLOCK_CELLS // ((points_b.shape[1] + 1) * math.prod(out.shape[1:])))
    for start in range(0, len(out), block):
        i_block = i[start:start + block]
        j_block = j[start:start + block] if len(j) == len(out) else j
        rows_a, rows_b = len_a[i_block], len_b[j_block]
        dist = out[start:start + block]
        steps_a = points_a.T[:rows_a.max(), i_block]
        # copied, as a gather's own layout strides the pairs axis
        columns_b = np.ascontiguousarray(points_b.T[:rows_b.max(), j_block])
        # each pair's entry of DP column len(b), in the flattened working array
        ends = rows_b * dist.size + np.arange(dist.size).reshape(dist.shape)
        for k, column in _wagner_fischer(steps_a, columns_b):
            done = np.flatnonzero(rows_a == k)
            dist[done] = column.reshape(-1)[ends[done]]
    return out


def _character_tokens(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each label's characters, as ``_code_points`` pads them, as tokens it
    holds once: a label holding code point c n times holds (c, 0) ...
    (c, n - 1). Returns each token's label, in label order, and its key
    c * 2^32 + copy.

    Two labels share sum_c min(cnt_a(c), cnt_b(c)) tokens, which is the
    sum over t of [cnt_a(c) >= t] . [cnt_b(c) >= t].
    """
    # padding (-1) sorts first, then each label's equal code points side by side
    ordered = np.sort(points)
    column = np.arange(ordered.shape[1])
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    copies = column - np.maximum.accumulate(np.where(first, column, 0), axis=1)
    label, at = np.nonzero(ordered >= 0)
    return label, ordered[label, at].astype(np.int64) << 32 | copies[label, at]


def _bag_distances(points_a, len_a, points_b, len_b):
    """The bag distance max(|a|, |b|) - sum_c min(cnt_a(c), cnt_b(c)) of
    every pair, over code points c, as (first row, block of rows) in blocks
    of left-hand labels whose arrays keep near ``_BLOCK_CELLS``.

    It is |a| or |b| less the characters the two labels share, whichever
    is larger. One edit changes each of those two counts by at most one,
    and both are 0 once a has become b, so the bag distance never exceeds
    the edit distance.
    """
    label_a, key_a = _character_tokens(points_a)
    label_b, key_b = _character_tokens(points_b)
    keys, token = np.unique(np.concatenate([key_a, key_b]), return_inverse=True)
    token_a, token_b = token[:len(key_a)], token[len(key_a):]
    # the right-hand labels' tokens as sparse rows, a block of left-hand
    # labels' as dense columns: their product counts the tokens each pair shares
    tokens_b = sparse.csr_matrix(
        (np.ones(len(token_b), dtype=np.int32), token_b,
         np.searchsorted(label_b, np.arange(len(len_b) + 1))), shape=(len(len_b), len(keys)))
    block = max(1, _BLOCK_CELLS // max(len(len_b), len(keys)))
    for start in range(0, len(len_a), block):
        rows_a = len_a[start:start + block]
        tokens_a = np.zeros((len(keys), len(rows_a)), dtype=np.int32)
        held = slice(*np.searchsorted(label_a, [start, start + block]))
        tokens_a[token_a[held], label_a[held] - start] = 1
        yield start, np.maximum.outer(rows_a, len_b) - (tokens_b @ tokens_a).T


def levenshtein_matrix(a: Sequence[str], b: Sequence[str],
                       cutoff: int | None = None) -> np.ndarray:
    """``levenshtein(a[i], b[j])`` for every pair, as an int array of shape
    (len(a), len(b)); with ``cutoff``, a non-negative integer,
    min(distance, cutoff + 1).

    Both arms run the recurrence through ``_distances``. Without a cutoff,
    or with one no less than the longest label, every pair runs through it
    as one grid. Otherwise only the pairs whose bag distance
    (``_bag_distances``), a lower bound, is at most the cutoff run through
    it, as a pair list; the others get cutoff + 1.
    """
    if cutoff is not None and not (isinstance(cutoff, (int, np.integer)) and cutoff >= 0):
        raise ValueError(f"cutoff must be a non-negative integer, got {cutoff!r}")
    out = np.empty((len(a), len(b)), dtype=np.int32)
    if not len(a) or not len(b):
        return out
    points_a, len_a = _code_points(a)
    points_b, len_b = _code_points(b)
    if cutoff is None or cutoff >= max(len_a.max(), len_b.max()):
        return _distances(points_a, len_a, points_b, len_b,
                          np.arange(len(a))[:, None], np.arange(len(b))[None])
    for start, bound in _bag_distances(points_a, len_a, points_b, len_b):
        i, j = np.nonzero(bound <= cutoff)
        dist = out[start:start + len(bound)]
        dist[:] = cutoff + 1
        dist[i, j] = np.minimum(
            _distances(points_a, len_a, points_b, len_b, start + i, j), cutoff + 1)
    return out


def similarity_of_distance(dist: np.ndarray | int) -> np.ndarray:
    """sigma of edit distances L, as floats: 1 at L = 0, 3/4 at L = 1, 1/L beyond."""
    dist = np.asarray(dist)
    return np.where(dist == 0, 1.0, np.where(dist == 1, 0.75, 1.0 / np.maximum(dist, 1)))


def edit_similarity(a: str, b: str) -> float:
    """Similarity in (0, 1] derived from the edit distance."""
    return float(similarity_of_distance(levenshtein(a, b)))


def _distinct(labels: Sequence[str], cfg: SimilarityConfig) -> tuple[list[str], np.ndarray]:
    """The distinct normalized labels in first-seen order, and each label's
    index among them.

    Folding runs once over all the labels joined by NUL. ``casefold`` maps
    each character without regard to its neighbours, and neither it nor
    the separator deletion makes or removes a NUL, so the folded text
    splits back into the labels' own folded forms. Where it does not split
    back into as many labels (a label holds a NUL, or there are none), and
    under ``LabelNorm.NONE``, each label is normalized on its own.
    """
    normalized = None
    if cfg.label_normalization is LabelNorm.FOLD:
        normalized = "\0".join(labels).casefold().translate(_SEPARATORS).split("\0")
    if normalized is None or len(normalized) != len(labels):
        normalized = [normalize_label(s, cfg) for s in labels]
    distinct = list(dict.fromkeys(normalized))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, normalized), dtype=np.intp,
                                 count=len(normalized))


def label_distances(labels1: Sequence[str], labels2: Sequence[str],
                    cfg: SimilarityConfig) -> np.ndarray:
    """Edit distance between the normalized forms of every pair of labels,
    shape (len(labels1), len(labels2)); each distinct pair is scored once."""
    distinct1, at1 = _distinct(labels1, cfg)
    distinct2, at2 = _distinct(labels2, cfg)
    return levenshtein_matrix(distinct1, distinct2)[np.ix_(at1, at2)]


def _least_over_sets(dist: np.ndarray, sets: Sequence[Collection[str]], count: int,
                     axis: int) -> np.ndarray:
    """The least of ``dist`` along ``axis`` over each set's labels, where
    that axis lists the sets' ``count`` labels set by set: one
    ``np.minimum.reduceat`` over the slices that start at each set's first
    label. Sets of one label each leave ``dist`` as it is."""
    if count == len(sets):
        return dist
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    return np.minimum.reduceat(dist, np.cumsum(sizes) - sizes, axis=axis)


def label_set_weights(sets1: Sequence[Collection[str]], sets2: Sequence[Collection[str]],
                      cfg: SimilarityConfig) -> np.ndarray:
    """Edge-confidence weight of every pair of non-empty label sets, shape
    (len(sets1), len(sets2)).

    A pair's weight depends only on the least edit distance d between
    their normalized labels, because sigma falls strictly as d grows:
    1/sigma(d) when sigma(d) >= gamma, else 0. So distances matter only up
    to the cutoff K, the largest d no longer than the longest label with
    sigma(d) >= gamma, evaluated with ``similarity_of_distance`` so that
    float boundaries such as gamma = 1/3 agree with the weight test.
    ``levenshtein_matrix`` gives every longer distance as K + 1, whose
    weight is 0 too, and runs the recurrence only on the label pairs whose
    bag distance, a lower bound, is at most K. When K reaches the longest
    label (gamma = 0, say), no pair can be ruled out.
    """
    labels1 = list(itertools.chain.from_iterable(sets1))
    labels2 = list(itertools.chain.from_iterable(sets2))
    distinct1, at1 = _distinct(labels1, cfg)
    distinct2, at2 = _distinct(labels2, cfg)
    longest = max(map(len, distinct1 + distinct2), default=0)
    # sigma of every distance the matrix can hold: up to the longest label,
    # or the cutoff plus one
    sigma = similarity_of_distance(np.arange(longest + 2))
    cutoff = int(np.count_nonzero(sigma[:-1] >= cfg.gamma)) - 1
    dist = levenshtein_matrix(distinct1, distinct2, cutoff)[np.ix_(at1, at2)]
    # the least over each set's rows, then over each set's columns
    dist = _least_over_sets(dist, sets1, len(labels1), axis=0)
    dist = _least_over_sets(dist, sets2, len(labels2), axis=1)
    return np.where(sigma >= cfg.gamma, 1.0 / sigma, 0.0)[dist]


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
